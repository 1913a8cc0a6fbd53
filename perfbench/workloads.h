// The benchmark's workloads. Each untraced run reports the end-to-end
// metrics; each traced run (--trace 1) reports the per-layer metrics.
#pragma once

#include "perfbench/common.h"

namespace perfbench {

Report run_table3(const Options& opts);
Report trace_table3(const Options& opts);

enum class SvcWorkload { kUnique32, kSweep216 };
Report run_svc(const Options& opts, SvcWorkload w);
Report trace_svc(const Options& opts, SvcWorkload w);

}  // namespace perfbench
