#include "src/sim/kernellane.h"

#include <utility>

namespace smd::sim {

KernelLane::~KernelLane() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

void KernelLane::post(kernel::KernelExec& exec,
                      const kernel::StreamBindings& bindings,
                      std::int64_t rounds) {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    job_ = Job{&exec, &bindings, rounds, &obs::CounterRegistry::global()};
    done_ = false;
  }
  busy_ = true;
  if (!thread_.joinable()) {
    thread_ = std::thread([this] { loop(); });
  } else {
    cv_.notify_all();
  }
}

kernel::InterpStats KernelLane::collect() {
  std::unique_lock<std::mutex> lock(mu_);
  cv_.wait(lock, [this] { return done_; });
  busy_ = false;
  if (error_) std::rethrow_exception(std::exchange(error_, nullptr));
  return result_;
}

void KernelLane::loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // A posted job runs even when stop_ is set: the destructor waits for
    // it instead of abandoning buffers the job is still writing.
    cv_.wait(lock, [this] { return job_.exec != nullptr || stop_; });
    if (job_.exec == nullptr) return;
    const Job job = std::exchange(job_, Job{});
    lock.unlock();

    kernel::InterpStats stats;
    std::exception_ptr error;
    try {
      obs::ScopedRegistryRedirect redirect(*job.registry);
      stats = job.exec->run(*job.bindings, job.rounds);
    } catch (...) {
      error = std::current_exception();
    }

    lock.lock();
    result_ = stats;
    error_ = std::move(error);
    done_ = true;
    cv_.notify_all();
  }
}

}  // namespace smd::sim
