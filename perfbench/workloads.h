// The benchmark's three workloads (perfbench/README.md). Each call runs
// one episode: set-up, then a fixed amount of seeded work, then the
// invariant checks. A null span log means an untraced episode.
#ifndef XOAR_PERFBENCH_WORKLOADS_H_
#define XOAR_PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "perfbench/harness.h"

namespace xoar::perfbench {

EpisodeResult RunDensityChurn(std::uint64_t seed, SpanLog* spans);
EpisodeResult RunGuestIo(std::uint64_t seed, SpanLog* spans);
EpisodeResult RunRestartIo(std::uint64_t seed, SpanLog* spans);

}  // namespace xoar::perfbench

#endif  // XOAR_PERFBENCH_WORKLOADS_H_
