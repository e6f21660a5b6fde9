/**
 * @file
 * Host speed probe. The benchmark hosts are shared VMs whose speed
 * drifts by tens of percent within a minute, and the simulator slows
 * more than a plain compute loop does. The probe is a fixed piece of
 * benchmark-owned work with the simulator's character: hash-map and
 * ordered-map updates, small allocations, and random reads over a
 * table larger than the L2. Sampled between jobs, its time scales the
 * measured times to the speed of a reference host on which one probe
 * round takes kReferenceProbeS. It uses no simulator code, so a change
 * to the simulator cannot move it.
 */

#ifndef PERFBENCH_PROBE_HH
#define PERFBENCH_PROBE_HH

#include <vector>

namespace perfbench
{

/** Probe time of the reference host, which defines the unit the scaled
 *  times are given in. */
constexpr double kReferenceProbeS = 0.002;

/** Run the probe `n` times on `threads` threads at once (as many as the
 *  timed work uses), appending each round's mean thread time to `out`.
 *  Each thread runs an untimed warm-up round first. */
void probe(unsigned n, std::vector<double> &out, unsigned threads = 1);

/** Median of `v` (0 when empty). */
double median(std::vector<double> v);

/** The factor that scales a time measured while the probe took
 *  `samples` to the reference host's speed: kReferenceProbeS over their
 *  median (1 when there are none). */
double speedFactor(const std::vector<double> &samples);

} // namespace perfbench

#endif // PERFBENCH_PROBE_HH
