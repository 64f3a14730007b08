// Umbrella header: the whole DUST public API in one include.
//
//   #include "dust.hpp"
//
// Pulls in every library layer, bottom-up. For faster builds include only
// the layer headers you need (each is self-contained).
#pragma once

// util — deterministic RNG, statistics, thread pool, tables, logging.
#include "util/log.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

// graph — topologies, path algorithms, DOT export.
#include "graph/dot.hpp"
#include "graph/graph.hpp"
#include "graph/paths.hpp"
#include "graph/topology.hpp"

// solver — the transportation engine (the Gurobi stand-in) and min-cost flow.
#include "solver/min_cost_flow.hpp"
#include "solver/status.hpp"
#include "solver/transportation.hpp"

// net — dynamic network state and response-time evaluation (Eq. 1-2).
#include "net/network_state.hpp"
#include "net/response_time.hpp"
#include "net/traffic.hpp"

// telemetry — agents, Gorilla TSDB, packet parsing, sampled-flow baseline.
#include "telemetry/agent.hpp"
#include "telemetry/gorilla.hpp"
#include "telemetry/metric.hpp"
#include "telemetry/packet.hpp"
#include "telemetry/sampled_flow.hpp"
#include "telemetry/tsdb.hpp"

// sim — discrete-event simulator, transport, device model, traffic.
#include "sim/event_queue.hpp"
#include "sim/node.hpp"
#include "sim/overlay_traffic.hpp"
#include "sim/transport.hpp"

// core — the DUST system: NMDB, placement, optimizer, heuristic, protocol.
#include "core/baselines.hpp"
#include "core/client.hpp"
#include "core/heuristic.hpp"
#include "core/manager.hpp"
#include "core/messages.hpp"
#include "core/nmdb.hpp"
#include "core/optimizer.hpp"
#include "core/placement.hpp"
#include "core/replay.hpp"
#include "core/routes.hpp"
#include "core/scenario.hpp"
#include "core/types.hpp"
#include "core/zones.hpp"
