/**
 * @file
 * Live service introspection: one JSON snapshot of what the service
 * is doing right now and what it has done since start.
 *
 * This is the payload behind the `stats` request kind (see api.h) and
 * the data source of `tools/xtalk_top.py`. Unlike telemetry's
 * StatsJson() — the raw dump of every registered metric — this is a
 * curated operator view: request totals and status mix, phase latency
 * percentiles, snapshot-cache effectiveness, portfolio win rates,
 * admission pressure, and journal/trace-buffer drop counts. Schema
 * `xtalk.svcstats.v1`; field catalogue in docs/SERVICE.md.
 *
 * Like ping, a stats request bypasses the admission gate, so the view
 * stays reachable while the service is saturated — that is precisely
 * when an operator wants it.
 */
#ifndef XTALK_SERVICE_STATS_H
#define XTALK_SERVICE_STATS_H

#include <string>

namespace xtalk::service {

class AdmissionGate;
class SnapshotCache;

/**
 * Serialize the operator view (schema xtalk.svcstats.v1, one line):
 * the global telemetry registry plus the engine's @p cache and the
 * live occupancy of its admission @p gate.
 */
std::string BuildServiceStatsJson(const SnapshotCache& cache,
                                  const AdmissionGate& gate);

}  // namespace xtalk::service

#endif  // XTALK_SERVICE_STATS_H
