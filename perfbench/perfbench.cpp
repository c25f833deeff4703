// perfbench: the repository's end-to-end benchmark harness.
//
//   perfbench --workload NAME --seed S --seconds T --trace 0|1
//             [--break CHECK] [--git-sha SHA]
//
// Drives the library only through its public entry points
// (lu::make_algorithm, cholesky::make_cholesky_algorithm, linalg kernels,
// simnet::Network/run_spmd) and times every layer from outside, at its own
// calls. Each factorization call is one operation; a call fails when it
// throws or breaks one of the checks in check_call(). Untraced runs
// (--trace 0) report the end-to-end metrics; a traced run (--trace 1)
// attaches a telemetry board and reports the per-layer metrics. The last
// stdout line is one JSON object: {"correct", "attempted", "failed",
// "metrics"}. perfbench/run.py builds this program and runs it; see
// perfbench/README.md for the workloads and what each metric should move.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cholesky/cholesky_common.hpp"
#include "linalg/blas.hpp"
#include "linalg/generate.hpp"
#include "linalg/getrf.hpp"
#include "linalg/potrf.hpp"
#include "lu/lu_common.hpp"
#include "models/cost_model.hpp"
#include "models/machines.hpp"
#include "models/phase_model.hpp"
#include "simnet/network.hpp"
#include "simnet/spmd.hpp"
#include "support/telemetry.hpp"
#include "support/thread_pool.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif

namespace {

using namespace conflux;
using Clock = std::chrono::steady_clock;

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return kNaN;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 == 1 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "lu_virtual|lu_numeric|chol_virtual --seed N --seconds T "
               "--trace 0|1 [--break "
               "residual|bytes|bound|makespan|parity] [--git-sha SHA]\n",
               why.c_str());
  std::exit(2);
}

// ---- workloads ------------------------------------------------------------

enum class Family { Lu, Cholesky };

struct Workload {
  const char* name;
  Family family;
  int n;
  int p;
  bool numeric;  ///< Numeric on the Threaded fabric; else DryRun on VirtualTime
  std::vector<std::string> backends;  ///< comparison backends, then the 2.5D
  [[nodiscard]] const std::string& conflux() const { return backends.back(); }
};

// Sizes and backends are the benchmark's definition; README.md says why each
// workload was chosen.
const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"lu_virtual", Family::Lu, 8192, 1024, false,
       {"LibSci", "SLATE", "CANDMC", "COnfLUX"}},
      {"lu_numeric", Family::Lu, 3072, 4, true, {"LibSci", "COnfLUX"}},
      {"chol_virtual", Family::Cholesky, 8192, 1024, false,
       {"ScaLAPACK", "COnfCHOX"}},
  };
  return all;
}

const Workload& lu_numeric_workload() { return workloads()[1]; }

simnet::FabricSpec virtual_fabric() {
  const models::Machine m = models::piz_daint();
  simnet::FabricSpec spec;
  spec.mode = simnet::ExecMode::VirtualTime;
  spec.link.alpha_s = m.alpha_s;
  spec.link.beta_s_per_byte = m.beta_s_per_byte;
  spec.link.gamma_s_per_flop = m.gamma_s_per_flop;
  return spec;
}

// ---- one factorization call -----------------------------------------------

struct Call {
  std::string backend;
  double wall = 0;  ///< host seconds around run()
  factor::FactorResult result;
  double residual_eps = kNaN;  ///< LU numeric only
  double growth = kNaN;        ///< LU numeric only
  std::string error;           ///< what() when run() threw
  std::map<std::string, telemetry::PhaseTotal> phases;  ///< traced calls
};

/// Run `backend` once on (n, p). `numeric` selects Numeric + Threaded with
/// residual verification; otherwise a DryRun on the VirtualTime fabric.
Call run_call(Family family, const std::string& backend, int n, int p,
              bool numeric, const linalg::Matrix* a, std::uint64_t seed,
              bool traced) {
  factor::FactorConfig cfg;
  cfg.n = n;
  cfg.p = p;
  cfg.seed = seed;
  cfg.mode = numeric ? factor::Mode::Numeric : factor::Mode::DryRun;
  cfg.verify = numeric;
  if (!numeric) cfg.fabric = virtual_fabric();
  telemetry::TelemetryBoard board;
  if (traced) cfg.telemetry = &board;

  Call call;
  call.backend = backend;
  try {
    if (family == Family::Lu) {
      lu::LuConfig lcfg;
      static_cast<factor::FactorConfig&>(lcfg) = cfg;
      const auto algo = lu::make_algorithm(backend);
      const auto t0 = Clock::now();
      lu::LuResult r = algo->run(numeric ? a : nullptr, lcfg);
      call.wall = since(t0);
      call.residual_eps = r.residual_eps;
      call.growth = r.growth;
      call.result = std::move(r);
    } else {
      cholesky::CholConfig ccfg;
      static_cast<factor::FactorConfig&>(ccfg) = cfg;
      const auto algo = cholesky::make_cholesky_algorithm(backend);
      const auto t0 = Clock::now();
      cholesky::CholResult r = algo->run(numeric ? a : nullptr, ccfg);
      call.wall = since(t0);
      call.result = std::move(r);
    }
  } catch (const std::exception& e) {
    call.error = e.what();
  }
  if (traced && call.error.empty()) call.phases = board.phase_totals();
  // Hand freed heap back to the OS, so every call starts from the same
  // allocator state and peak RSS tracks one call's live memory rather than
  // what earlier calls left cached (without this, lu_numeric's peak varied
  // by 15% between identical runs).
  malloc_trim(0);
  return call;
}

// ---- correctness checks ---------------------------------------------------

/// The expectations every call is checked against. --break perturbs exactly
/// one of them so that a run proves its own check can fail.
struct Expect {
  double residual_factor = 100.0;  ///< residual_eps <= f * max(1, growth),
                                   ///< the numerics suite's LU bound
  double bound_scale = 1.0;        ///< 2.5D bytes >= scale * DAAP floor
  double band_lo = 0.90;           ///< predict_lu_makespan / fabric in
  double band_hi = 1.10;           ///< [lo, hi], as test_phase_times pins
  std::uint64_t bytes_offset = 0;  ///< added to the reference pass's bytes
  std::uint64_t recv_offset = 0;   ///< added to messages_received
};

Expect make_expect(const std::string& brk) {
  Expect e;
  if (brk.empty()) return e;
  if (brk == "residual") e.residual_factor = 0;
  else if (brk == "bytes") e.bytes_offset = 1;
  else if (brk == "bound") e.bound_scale = 1e3;
  else if (brk == "makespan") e.band_lo = e.band_hi = 2.0;
  else if (brk == "parity") e.recv_offset = 1;
  else usage("unknown --break check '" + brk + "'");
  return e;
}

/// DAAP lower bound in elements per rank for the family at (n, p), under the
/// max-replication memory rule the engines default to.
double daap_bound_elements(Family family, int n, int p) {
  const auto inst = models::max_replication_instance(n, p);
  return family == Family::Lu
             ? models::lu_lower_bound_elements_per_rank(inst)
             : models::cholesky_lower_bound_elements_per_rank(inst);
}

/// The floor on network bytes per rank that commcheck's volume pass
/// enforces: the DAAP bound minus the N^2/P elements each rank starts with,
/// which it loads without any network traffic.
double bytes_floor_per_rank(Family family, int n, int p) {
  const double resident = static_cast<double>(n) * n / p;
  return 8.0 * std::max(0.0, daap_bound_elements(family, n, p) - resident);
}

/// The analytic COnfLUX makespan on the Piz Daint preset, memoized per
/// (n, p): the replay is deterministic and not free at P = 1024.
double conflux_model_makespan(int n, int p) {
  static std::map<std::pair<int, int>, double> memo;
  const auto key = std::make_pair(n, p);
  auto it = memo.find(key);
  if (it != memo.end()) return it->second;
  const auto spec = virtual_fabric();
  const double s = models::predict_lu_makespan(
      "COnfLUX", n, p, spec.link.alpha_s, spec.link.beta_s_per_byte);
  memo.emplace(key, s);
  return s;
}

/// Every reason `call` counts as failed; empty means it passed. `ref` is the
/// same backend's call from the run's first pass (null on the first pass).
std::vector<std::string> check_call(Family family, const std::string& conflux,
                                    int n, int p, const Call& call,
                                    const Call* ref, const Expect& ex) {
  std::vector<std::string> why;
  if (!call.error.empty()) {
    why.push_back("threw: " + call.error);
    return why;
  }
  const factor::FactorResult& r = call.result;
  if (r.total.messages_sent + ex.recv_offset != r.total.messages_received)
    why.push_back("messages received " +
                  std::to_string(r.total.messages_received) +
                  " != expected " +
                  std::to_string(r.total.messages_sent + ex.recv_offset));
  if (!std::isnan(call.growth) || !std::isnan(call.residual_eps)) {
    const double bound = ex.residual_factor * std::max(1.0, call.growth);
    if (!(call.residual_eps <= bound))
      why.push_back("residual " + std::to_string(call.residual_eps) +
                    " eps above the growth-scaled bound " +
                    std::to_string(bound));
  }
  if (call.backend == conflux) {
    const double lb = ex.bound_scale * bytes_floor_per_rank(family, n, p);
    if (r.bytes_per_rank() < lb)
      why.push_back("bytes/rank " + std::to_string(r.bytes_per_rank()) +
                    " below the DAAP floor " + std::to_string(lb));
  }
  if (call.backend == "COnfLUX" && r.predicted_seconds > 0) {
    const double ratio = conflux_model_makespan(n, p) / r.predicted_seconds;
    if (!(ratio >= ex.band_lo && ratio <= ex.band_hi))
      why.push_back("predict_lu_makespan / fabric = " + std::to_string(ratio) +
                    " outside the model band");
  }
  if (ref != nullptr && ref->error.empty()) {
    const factor::FactorResult& q = ref->result;
    if (r.total.bytes_sent != q.total.bytes_sent + ex.bytes_offset ||
        r.total.messages_sent != q.total.messages_sent ||
        r.max_rank_bytes != q.max_rank_bytes ||
        std::memcmp(&r.predicted_seconds, &q.predicted_seconds,
                    sizeof(double)) != 0)
      why.push_back("bytes/messages/predicted seconds differ from pass 0");
  }
  return why;
}

/// Runs calls, checks them and keeps the attempted/failed tally.
struct Ledger {
  Expect expect;
  int attempted = 0;
  int failed = 0;

  void record(Family family, const std::string& conflux, int n, int p,
              const Call& call, const Call* ref, const char* where) {
    ++attempted;
    const auto why = check_call(family, conflux, n, p, call, ref, expect);
    if (why.empty()) return;
    ++failed;
    for (const auto& w : why)
      std::printf("FAILED %s %s: %s\n", where, call.backend.c_str(),
                  w.c_str());
  }
};

// ---- workload passes ------------------------------------------------------

struct Pass {
  std::vector<Call> calls;  ///< one per backend, in Workload::backends order
  [[nodiscard]] double wall() const {
    double s = 0;
    for (const Call& c : calls) s += c.wall;
    return s;
  }
  [[nodiscard]] const Call& of(const std::string& backend) const {
    for (const Call& c : calls)
      if (c.backend == backend) return c;
    std::fprintf(stderr, "perfbench: no call for %s\n", backend.c_str());
    std::exit(1);
  }
};

Pass run_pass(const Workload& w, const linalg::Matrix* a, std::uint64_t seed,
              bool traced, const Pass* ref, Ledger& ledger) {
  const char* where = traced ? "traced" : w.numeric ? "numeric" : "virtual";
  Pass pass;
  for (const std::string& b : w.backends) {
    pass.calls.push_back(
        run_call(w.family, b, w.n, w.p, w.numeric, a, seed, traced));
    ledger.record(w.family, w.conflux(), w.n, w.p, pass.calls.back(),
                  ref != nullptr ? &ref->of(b) : nullptr, where);
  }
  return pass;
}

/// VirtualTime dry runs of the lu_numeric problem. They give lu_numeric its
/// predicted-makespan metrics (numeric runs are Threaded) and every traced
/// run the engines' local tile shapes; block and grid depend only on (n, p),
/// so they match the numeric calls'.
Pass lu_numeric_twin(std::uint64_t seed, Ledger& ledger) {
  Workload twin = lu_numeric_workload();
  twin.numeric = false;
  return run_pass(twin, nullptr, seed, false, nullptr, ledger);
}

// ---- set-up ---------------------------------------------------------------

/// One set-up: thread-pool start-up, input generation, and the fabric's lazy
/// set-up (a Network of the workload's size running an empty job). Returns
/// the matrix numeric workloads factor.
linalg::Matrix set_up(const Workload& w, std::uint64_t seed) {
  {
    support::ThreadPool pool(support::global_pool().size());
    pool.parallel_for(0, pool.size(), [](int) {});
  }
  linalg::Matrix a;
  if (w.numeric) a = linalg::generate(w.n, linalg::MatrixKind::Uniform, seed);
  simnet::Network net(w.p,
                      w.numeric ? simnet::FabricSpec{} : virtual_fabric());
  simnet::run_spmd(net, [](simnet::Comm&) {});
  return a;
}

// ---- metrics output -------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< printed next to the value, not in the JSON
};

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

void print_result(const std::vector<Metric>& metrics, const Ledger& ledger) {
  for (const Metric& m : metrics)
    std::printf("%-44s %16s %-8s %s\n", m.name.c_str(),
                number(m.value).c_str(), m.unit.c_str(), m.note.c_str());
  std::printf("operations: %d attempted, %d failed\n", ledger.attempted,
              ledger.failed);
  std::string json = "{\"correct\": ";
  json += ledger.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(ledger.attempted);
  json += ", \"failed\": " + std::to_string(ledger.failed);
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---- end-to-end (untraced) ------------------------------------------------

/// The metrics shared by both modes' reporting: bytes and predicted seconds
/// of the 2.5D backend and of the best comparison backend.
struct Headline {
  double conflux_bytes = 0, baseline_bytes = 0;
  double conflux_predicted = 0, baseline_predicted = 0;
};

Headline headline(const Workload& w, const Pass& measured,
                  const Pass& predicted) {
  Headline h;
  h.conflux_bytes = measured.of(w.conflux()).result.bytes_per_rank();
  h.conflux_predicted = predicted.of(w.conflux()).result.predicted_seconds;
  h.baseline_bytes = h.baseline_predicted = kNaN;
  for (std::size_t i = 0; i + 1 < w.backends.size(); ++i) {
    const auto& b = w.backends[i];
    const double bytes = measured.of(b).result.bytes_per_rank();
    const double pred = predicted.of(b).result.predicted_seconds;
    if (!(bytes >= h.baseline_bytes)) h.baseline_bytes = bytes;
    if (!(pred >= h.baseline_predicted)) h.baseline_predicted = pred;
  }
  return h;
}

// ---- per-layer: fabric, pool and kernel microbenchmarks -------------------

/// Median over `reps` of the host seconds to construct a Network of `p`
/// ranks in `spec` and run `body` on it through run_spmd.
double time_spmd(int p, const simnet::FabricSpec& spec, int reps,
                 const std::function<void(simnet::Comm&)>& body) {
  std::vector<double> s;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    simnet::Network net(p, spec);
    simnet::run_spmd(net, body);
    s.push_back(since(t0));
  }
  return median(s);
}

struct FabricCosts {
  double p2p_ns = 0, multicast_ns = 0, park_wake_ns = 0, empty_run_s = 0;
};

constexpr int kMulticastFanout = 8;

FabricCosts fabric_costs(const simnet::FabricSpec& spec, int empty_p) {
  constexpr int kMsgs = 20000, kReps = 5;
  constexpr simnet::Tag kTag = 7;
  const std::vector<double> payload(8, 1.0);
  FabricCosts c;
  // Point-to-point: rank 0 streams kMsgs small messages to rank 1.
  c.p2p_ns = 1e9 / kMsgs *
             time_spmd(2, spec, kReps, [&](simnet::Comm& comm) {
               for (int k = 0; k < kMsgs; ++k) {
                 if (comm.rank() == 0) comm.send(1, kTag, payload);
                 else (void)comm.recv(0, kTag);
               }
             });
  // d-way multicast: per recipient of one shared payload.
  std::vector<int> dsts;
  for (int d = 1; d <= kMulticastFanout; ++d) dsts.push_back(d);
  const auto shared = simnet::make_shared_buffer(std::span(payload));
  c.multicast_ns =
      1e9 / (static_cast<double>(kMsgs) * kMulticastFanout) *
      time_spmd(kMulticastFanout + 1, spec, kReps, [&](simnet::Comm& comm) {
        for (int k = 0; k < kMsgs; ++k) {
          if (comm.rank() == 0) comm.multicast(dsts, kTag, shared);
          else (void)comm.recv_view(0, kTag);
        }
      });
  // Park/wake: a ping-pong, so every receive waits for its message.
  c.park_wake_ns = 1e9 / (2.0 * kMsgs) *
                   time_spmd(2, spec, kReps, [&](simnet::Comm& comm) {
                     const int peer = 1 - comm.rank();
                     for (int k = 0; k < kMsgs; ++k) {
                       if (comm.rank() == 0) {
                         comm.send(peer, kTag, payload);
                         (void)comm.recv(peer, kTag);
                       } else {
                         (void)comm.recv(peer, kTag);
                         comm.send(peer, kTag, payload);
                       }
                     }
                   });
  // Empty job: construction, launch and join of `empty_p` ranks.
  c.empty_run_s = time_spmd(empty_p, spec, kReps, [](simnet::Comm&) {});
  return c;
}

double parallel_for_us() {
  constexpr int kCalls = 2000;
  auto& pool = support::global_pool();
  std::vector<double> s;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    for (int k = 0; k < kCalls; ++k)
      pool.parallel_for(0, pool.size(), [](int) {});
    s.push_back(since(t0) * 1e6 / kCalls);
  }
  return median(s);
}

/// Median host seconds of `kernel` over repetitions, each preceded by an
/// untimed `reset`. `one_thread` runs the whole loop inside a pool task,
/// where the kernels' own parallel_for runs inline; otherwise the caller
/// thread submits to the pool like the engines' rank threads do.
double time_kernel(const std::function<void()>& reset,
                   const std::function<void()>& kernel, bool one_thread) {
  double result = 0;
  auto measure = [&] {
    std::vector<double> s;
    double total = 0;
    while ((total < 0.1 || s.size() < 3) && s.size() < 20000) {
      reset();
      const auto t0 = Clock::now();
      kernel();
      s.push_back(since(t0));
      total += s.back();
    }
    result = median(s);
  };
  if (one_thread)
    support::global_pool().parallel_for(0, 2, [&](int i) {
      if (i == 1) measure();
    });
  else
    measure();
  return result;
}

/// Integers of a FactorResult::grid string ("[2 x 2 x 1]", "[16 x 16] x 4").
std::vector<int> grid_dims(const std::string& grid) {
  std::vector<int> dims;
  int cur = -1;
  for (char ch : grid + " ") {
    if (ch >= '0' && ch <= '9') cur = (cur < 0 ? 0 : cur * 10) + (ch - '0');
    else if (cur >= 0) {
      dims.push_back(cur);
      cur = -1;
    }
  }
  return dims;
}

struct KernelCase {
  std::string name;   ///< metric stem, e.g. "linalg.trsm"
  std::string shape;  ///< printed next to the rates
  double flops;
  double bytes;  ///< computed: every operand read once, outputs written once
  std::function<void()> reset, kernel;
};

/// Kernel rates at the engines' local tile shapes, taken from the
/// lu_numeric problem's block and grid (`shapes` holds its COnfLUX and
/// LibSci calls), plus a fixed 1024^3 GEMM.
void kernel_metrics(const Pass& shapes, std::uint64_t seed,
                    std::vector<Metric>& out) {
  using linalg::Matrix;
  const int n = lu_numeric_workload().n;
  const factor::FactorResult& cx = shapes.of("COnfLUX").result;
  const factor::FactorResult& ls = shapes.of("LibSci").result;
  const auto g = grid_dims(cx.grid);  // Px, Py, c
  const auto h = grid_dims(ls.grid);  // Pr, Pc
  if (g.size() < 3 || h.size() < 2) {
    std::fprintf(stderr, "perfbench: cannot parse grids '%s' / '%s'\n",
                 cx.grid.c_str(), ls.grid.c_str());
    std::exit(1);
  }
  const int v = cx.block, nb = ls.block;
  const int cm = (n + g[0] - 1) / g[0], cn = (n + g[1] - 1) / g[1];
  const int ck = std::max(1, v / g[2]);
  const int bm = (n + h[0] - 1) / h[0], bn = (n + h[1] - 1) / h[1];
  auto shape = [](int m, int nn, int k) {
    std::string s = "m=" + std::to_string(m);
    if (nn > 0) s += " n=" + std::to_string(nn);
    if (k > 0) s += " k=" + std::to_string(k);
    return s;
  };
  auto gen = [seed](int r, int c) {
    return linalg::generate(r, c, linalg::MatrixKind::Uniform, seed);
  };
  // GEMM-shaped flops and bytes; `update` reads C as well as writing it.
  auto gemm_flops = [](double m, double nn, double k) {
    return 2 * m * nn * k;
  };
  auto gemm_bytes = [](double m, double nn, double k, bool update) {
    return 8 * (m * k + k * nn + (update ? 2 : 1) * m * nn);
  };
  const std::function<void()> noop = [] {};

  // Operands outlive the closures that reference them.
  Matrix sa = gen(cm, ck), sb = gen(ck, cn), sc(cm, cn);
  Matrix ba = gen(bm, nb), bb = gen(nb, bn), bc = gen(bm, bn);
  Matrix ga = gen(1024, 1024), gb = gen(1024, 1024), gc(1024, 1024);
  Matrix tl = gen(v, v), tb = gen(v, cn), tw(v, cn);
  Matrix fb = gen(cm, v), fw(cm, v);
  std::vector<int> ipiv(static_cast<std::size_t>(v));
  Matrix pb = linalg::generate(nb, linalg::MatrixKind::Spd, seed), pw(nb, nb);

  const double dv = v, dnb = nb;
  const std::vector<KernelCase> cases = {
      {"linalg.schur_conflux", shape(cm, cn, ck), gemm_flops(cm, cn, ck),
       gemm_bytes(cm, cn, ck, false), noop,
       [&] { linalg::gemm(1.0, sa.view(), sb.view(), 0.0, sc.view()); }},
      {"linalg.schur_baseline", shape(bm, bn, nb), gemm_flops(bm, bn, nb),
       gemm_bytes(bm, bn, nb, true), noop,
       [&] { linalg::schur_update(bc.view(), ba.view(), bb.view()); }},
      {"linalg.gemm1024", shape(1024, 1024, 1024),
       gemm_flops(1024, 1024, 1024), gemm_bytes(1024, 1024, 1024, false), noop,
       [&] { linalg::gemm(1.0, ga.view(), gb.view(), 0.0, gc.view()); }},
      {"linalg.trsm", shape(v, cn, 0), dv * dv * cn,
       8 * (dv * (dv + 1) / 2 + 2.0 * dv * cn),
       [&] { linalg::copy(tb.view(), tw.view()); },
       [&] {
         linalg::trsm_left(linalg::Triangle::Lower, linalg::Diag::Unit,
                           tl.view(), tw.view());
       }},
      {"linalg.getrf", shape(cm, v, 0), cm * dv * dv - dv * dv * dv / 3,
       8 * 2.0 * cm * dv, [&] { linalg::copy(fb.view(), fw.view()); },
       [&] { (void)linalg::getrf_unblocked(fw.view(), ipiv); }},
      {"linalg.potrf", shape(nb, nb, 0), dnb * dnb * dnb / 3,
       8 * dnb * (dnb + 1), [&] { linalg::copy(pb.view(), pw.view()); },
       [&] { (void)linalg::potrf_unblocked(pw.view()); }},
  };
  for (const KernelCase& k : cases) {
    const double pool_s = time_kernel(k.reset, k.kernel, false);
    const double one_s = time_kernel(k.reset, k.kernel, true);
    out.push_back({k.name + "_gflops", k.flops / pool_s * 1e-9, "GFLOP/s",
                   k.shape + ", on the pool"});
    out.push_back({k.name + "_gflops_inline", k.flops / one_s * 1e-9,
                   "GFLOP/s", k.shape + ", one thread"});
    out.push_back({k.name + "_flop_per_byte", k.flops / k.bytes, "flop/B",
                   "computed bytes " + number(k.bytes)});
  }
}

// ---- per-layer: engine, models and bounds ---------------------------------

const std::vector<std::string> kLuPhases = {
    telemetry::kLayerReduction, telemetry::kPanelTournament,
    telemetry::kPivotApply, telemetry::kTrsm, telemetry::kSchurUpdate};
const std::vector<std::string> kCholPhases = {
    telemetry::kLayerReduction, telemetry::kPanelFactor, telemetry::kTrsm,
    telemetry::kSchurUpdate};
const std::vector<std::string> kLuBackends = {"LibSci", "SLATE", "CANDMC",
                                              "COnfLUX"};
const std::vector<std::string> kCholBackends = {"ScaLAPACK", "COnfCHOX"};

bool runs(const Workload& w, const std::string& backend) {
  return std::find(w.backends.begin(), w.backends.end(), backend) !=
         w.backends.end();
}

/// Per-layer metrics a workload does not exercise are reported as 0 (for
/// example the Cholesky phases on lu_virtual), so every traced run prints
/// the same metric set.
void engine_metrics(const Workload& w, const Pass& untraced,
                    const Pass& traced, const Pass& twin,
                    std::vector<Metric>& out) {
  for (const auto& [family, fam_name, backends, phases, conflux] :
       {std::tuple(Family::Lu, "lu", kLuBackends, kLuPhases, "COnfLUX"),
        std::tuple(Family::Cholesky, "cholesky", kCholBackends, kCholPhases,
                   "COnfCHOX")}) {
    const bool mine = w.family == family;
    const std::string note =
        !mine ? "not run" : w.numeric ? "host s, summed over ranks"
                                      : "predicted s, summed over ranks";
    for (const std::string& ph : phases) {
      double busy = 0, wait = 0;
      if (mine) {
        const auto& totals = traced.of(conflux).phases;
        const auto it = totals.find(ph);
        if (it != totals.end()) {
          busy = it->second.seconds - it->second.wait_seconds;
          wait = it->second.wait_seconds;
        }
      }
      out.push_back(
          {std::string(fam_name) + "." + ph + ".busy_s", busy, "s", note});
      out.push_back(
          {std::string(fam_name) + "." + ph + ".wait_s", wait, "s", note});
    }
    for (const std::string& b : backends) {
      const bool ran = mine && runs(w, b);
      out.push_back({std::string(fam_name) + "." + b + ".wall_s",
                     ran ? untraced.of(b).wall : 0.0, "s",
                     ran ? "" : "not run"});
      out.push_back(
          {std::string(fam_name) + "." + b + ".messages",
           ran ? static_cast<double>(untraced.of(b).result.total.messages_sent)
               : 0.0,
           "count", ran ? "" : "not run"});
    }
  }
  for (const char* b : {"LibSci", "SLATE", "CANDMC", "COnfLUX", "ScaLAPACK",
                        "COnfCHOX"}) {
    double ns = 0;
    if (runs(w, b)) {
      const Call& c = untraced.of(b);
      ns = c.wall * 1e9 /
           std::max(1.0, static_cast<double>(c.result.total.messages_sent));
    }
    out.push_back({std::string("simnet.host_ns_per_msg.") + b, ns, "ns",
                   runs(w, b) ? "" : "not run"});
  }

  // Models and bounds: the 2.5D backend of this workload (COnfLUX's
  // predicted makespan comes from the VirtualTime twin on lu_numeric).
  const Call& cx = untraced.of(w.conflux());
  const double measured = cx.result.total_bytes();
  const auto inst = models::max_replication_instance(w.n, w.p);
  double modeled = 0;
  for (const auto& m : w.family == Family::Lu ? models::standard_models()
                                              : models::cholesky_models())
    if (m->name() == w.conflux()) modeled = m->total_bytes(inst);
  double makespan_dev = 0;
  const Pass& virt = w.numeric ? twin : untraced;
  if (w.family == Family::Lu) {
    const double fabric = virt.of("COnfLUX").result.predicted_seconds;
    makespan_dev = std::fabs(conflux_model_makespan(w.n, w.p) / fabric - 1.0);
  }
  out.push_back({"models.makespan_dev", makespan_dev, "ratio",
                 w.family == Family::Lu ? "|predict_lu_makespan/fabric - 1|"
                                        : "no Cholesky makespan model"});
  out.push_back({"models.volume_dev", std::fabs(measured / modeled - 1.0),
                 "ratio", "|measured/model - 1|, " + w.conflux()});
  out.push_back({"daap.bound_ratio",
                 cx.result.bytes_per_rank() /
                     (8.0 * daap_bound_elements(w.family, w.n, w.p)),
                 "ratio", w.conflux() + " bytes/rank over the DAAP bound"});

  double verify = 0, res = 0;
  for (const Call& c : untraced.calls) {
    verify += c.wall - c.result.seconds;
    if (!std::isnan(c.residual_eps)) res = std::max(res, c.residual_eps);
  }
  out.push_back({"factor.verify_s", verify, "s",
                 "call wall - FactorResult::seconds, summed over backends"});
  out.push_back({"factor.residual_eps", res, "eps",
                 w.numeric ? "max over calls" : "not run (dry runs)"});
}

void fabric_metrics(std::vector<Metric>& out) {
  const FabricCosts thr = fabric_costs({}, lu_numeric_workload().p);
  const FabricCosts vt = fabric_costs(virtual_fabric(), 1024);
  const std::string d =
      std::to_string(kMulticastFanout) + "-way, per recipient";
  out.push_back(
      {"simnet.p2p_ns.threaded", thr.p2p_ns, "ns", "streaming, 64 B"});
  out.push_back({"simnet.p2p_ns.virtual", vt.p2p_ns, "ns", "streaming, 64 B"});
  out.push_back({"simnet.multicast_ns.threaded", thr.multicast_ns, "ns", d});
  out.push_back({"simnet.multicast_ns.virtual", vt.multicast_ns, "ns", d});
  out.push_back({"simnet.park_wake_ns.threaded", thr.park_wake_ns, "ns",
                 "ping-pong, per receive"});
  out.push_back({"simnet.park_wake_ns", vt.park_wake_ns, "ns",
                 "VirtualTime ping-pong, per receive"});
  out.push_back({"simnet.empty_run_s.threaded", thr.empty_run_s, "s",
                 "P=" + std::to_string(lu_numeric_workload().p)});
  out.push_back({"simnet.empty_run_s", vt.empty_run_s, "s",
                 "VirtualTime, P=1024"});
  out.push_back({"support.parallel_for_us", parallel_for_us(), "us",
                 "empty parallel_for over the pool"});
}

// ---- main -----------------------------------------------------------------

void print_provenance(const std::string& git_sha, const Workload& w,
                      std::uint64_t seed, bool trace) {
  const char* blas_env = std::getenv("CONFLUX_BLAS");
  std::printf(
      "{\"provenance\": {\"git_sha\": \"%s\", \"compiler\": \"%s\", "
      "\"cxx_flags\": \"%s\", \"nproc\": %u, \"pool_size\": %d, "
      "\"conflux_blas\": \"%s\", \"blas_impl\": \"%s\", \"workload\": "
      "\"%s\", \"seed\": %llu, \"trace\": %d}}\n",
      git_sha.c_str(), __VERSION__, PERFBENCH_CXX_FLAGS,
      std::thread::hardware_concurrency(), support::global_pool().size(),
      blas_env != nullptr ? blas_env : "",
      linalg::blas_impl() == linalg::BlasImpl::Optimized ? "optimized"
                                                         : "reference",
      w.name, static_cast<unsigned long long>(seed), trace ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, brk, git_sha = "unknown";
  long long seed = -1;
  double seconds = -1;
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string val = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") workload = val;
    else if (flag == "--seed") seed = std::strtoll(val.c_str(), &end, 10);
    else if (flag == "--seconds") seconds = std::strtod(val.c_str(), &end);
    else if (flag == "--trace") trace = val == "1" ? 1 : val == "0" ? 0 : -1;
    else if (flag == "--break") brk = val;
    else if (flag == "--git-sha") git_sha = val;
    else usage("unknown flag " + flag);
    if (end != nullptr && *end != '\0') usage("bad value for " + flag);
  }
  const Workload* wp = nullptr;
  for (const Workload& w : workloads())
    if (workload == w.name) wp = &w;
  if (wp == nullptr) usage("unknown workload '" + workload + "'");
  if (seed < 0 || !(seconds > 0) || trace < 0)
    usage("--seed, --seconds and --trace are required");
  const Workload& w = *wp;
  const auto useed = static_cast<std::uint64_t>(seed);
  Ledger ledger;
  ledger.expect = make_expect(brk);
  print_provenance(git_sha, w, useed, trace == 1);

  // Set up several times; the last set-up's matrix is the one factored.
  constexpr int kSetups = 11;
  std::vector<double> setup_s;
  linalg::Matrix a;
  for (int r = 0; r < kSetups; ++r) {
    const auto t0 = Clock::now();
    a = set_up(w, useed);
    setup_s.push_back(since(t0));
  }
  const linalg::Matrix* ap = w.numeric ? &a : nullptr;

  std::vector<Metric> metrics;
  if (trace == 0) {
    // Timed passes until the next would overrun --seconds (at least two, so
    // determinism across passes is checked).
    std::vector<Pass> passes;
    const auto t0 = Clock::now();
    while (passes.size() < 2 ||
           since(t0) + passes.back().wall() <= seconds) {
      passes.push_back(run_pass(w, ap, useed, false,
                                passes.empty() ? nullptr : &passes.front(),
                                ledger));
      std::printf("pass %zu:", passes.size());
      for (const Call& c : passes.back().calls)
        std::printf(" %s %.3fs", c.backend.c_str(), c.wall);
      std::printf("\n");
    }
    const Pass twin = w.numeric ? lu_numeric_twin(useed, ledger) : Pass{};
    std::vector<double> wall, cwall;
    for (const Pass& p : passes) {
      wall.push_back(p.wall());
      cwall.push_back(p.of(w.conflux()).wall);
    }
    const Headline h =
        headline(w, passes.front(), w.numeric ? twin : passes.front());
    const std::string np = std::to_string(passes.size()) + " passes";
    metrics = {
        {"wall_s", median(wall), "s", "median of " + np},
        {"conflux_wall_s", median(cwall), "s",
         w.conflux() + ", median of " + np},
        {"setup_s", median(setup_s), "s",
         "median of " + std::to_string(kSetups) + " set-ups"},
        {"peak_rss_mb", peak_rss_mb(), "MB", ""},
        {"conflux_bytes_per_rank", h.conflux_bytes, "B", w.conflux()},
        {"best_baseline_bytes_per_rank", h.baseline_bytes, "B", ""},
        {"conflux_predicted_s", h.conflux_predicted, "s_model",
         w.numeric ? "Piz Daint, VirtualTime dry run of the same problem"
                   : "Piz Daint"},
        {"best_baseline_predicted_s", h.baseline_predicted, "s_model", ""},
    };
  } else {
    const Pass untraced = run_pass(w, ap, useed, false, nullptr, ledger);
    const Pass traced = run_pass(w, ap, useed, true, &untraced, ledger);
    const Pass twin = lu_numeric_twin(useed, ledger);
    engine_metrics(w, untraced, traced, twin, metrics);
    fabric_metrics(metrics);
    kernel_metrics(w.numeric ? untraced : twin, useed, metrics);
    metrics.push_back({"trace.overhead", traced.wall() / untraced.wall(),
                       "ratio", "traced / untraced pass wall"});
  }
  print_result(metrics, ledger);
  return 0;
}
