/**
 * @file
 * Parameter sets for the paper's proxy benchmarks (Table 2) and the
 * OpenHarmony system-software components of Fig. 1.
 *
 * Each set is sized from the paper's published per-benchmark data:
 * static hot/warm text from Table 5's page counts, binary size from
 * Table 5, and dynamic footprint / data pressure tuned so the SRRIP
 * L2 MPKIs land in the regime of Table 3 (bench/table3_mpki prints
 * the measured values).  These are synthetic stand-ins: the real
 * benchmarks' binaries and inputs are not reproducible offline.
 */

#ifndef TRRIP_WORKLOADS_PROXIES_HH
#define TRRIP_WORKLOADS_PROXIES_HH

#include <string>
#include <vector>

#include "workloads/spec.hh"

namespace trrip {

/** Names of the 10 proxy benchmarks, in the paper's order. */
std::vector<std::string> proxyNames();

/** Names of the Fig. 1 system-software components. */
std::vector<std::string> systemComponentNames();

/** Parameter set for a proxy benchmark or system component. */
WorkloadParams proxyParams(const std::string &name);

} // namespace trrip

#endif // TRRIP_WORKLOADS_PROXIES_HH
