// Kernel lane: a helper thread that runs one kernel's functional execution
// while the stream controller keeps advancing the timing model.
//
// A kernel's cycle count comes from its KernelCost alone, never from the
// data it computes, and every reader or writer of its streams waits for its
// retirement (the controller's RAW/WAR/WAW dependences). So the controller
// may post the functional run here at launch, tick the memory system
// through the kernel's simulated interval, and collect the result when the
// kernel retires: the simulated outcome is bit-identical to running it
// inline at launch (DESIGN.md section 10). (The thread is unrelated to the
// timeline's Lane::kKernel track, which records simulated kernel time.)
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <mutex>
#include <thread>

#include "src/kernel/vm.h"
#include "src/obs/registry.h"

namespace smd::sim {

/// One helper thread with room for one job. The thread starts at the
/// first post() and is joined by the destructor, which first lets a
/// posted job finish, so everything a job reads must outlive the lane.
class KernelLane {
 public:
  KernelLane() = default;
  KernelLane(const KernelLane&) = delete;
  KernelLane& operator=(const KernelLane&) = delete;
  ~KernelLane();

  /// Starts `exec.run(bindings, rounds)` on the lane thread. The executor,
  /// `bindings` and every buffer they name belong to the job until
  /// collect(); output buffers should have their capacity reserved so the
  /// lane allocates nothing. Registry counters the run emits land in the
  /// caller's CounterRegistry::global(). Requires !busy().
  void post(kernel::KernelExec& exec, const kernel::StreamBindings& bindings,
            std::int64_t rounds);

  /// Whether a posted job has not been collected yet.
  bool busy() const { return busy_; }

  /// Waits for the posted job and returns its census, or rethrows the
  /// exception it raised (same type and message). Requires busy().
  kernel::InterpStats collect();

 private:
  struct Job {
    kernel::KernelExec* exec = nullptr;
    const kernel::StreamBindings* bindings = nullptr;
    std::int64_t rounds = 0;
    obs::CounterRegistry* registry = nullptr;
  };

  void loop();

  bool busy_ = false;  // poster's thread only

  std::mutex mu_;
  std::condition_variable cv_;
  Job job_;                   // guarded by mu_; exec == nullptr when empty
  bool done_ = false;         // guarded by mu_
  bool stop_ = false;         // guarded by mu_
  kernel::InterpStats result_;  // guarded by mu_
  std::exception_ptr error_;    // guarded by mu_

  std::thread thread_;  // last: joined before the state above goes away
};

}  // namespace smd::sim
