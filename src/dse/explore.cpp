#include "dse/explore.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <unordered_map>
#include <utility>

#include "core/parallel.hpp"
#include "obs/obs.hpp"
#include "sim/batch.hpp"
#include "taskgraph/baselines.hpp"
#include "taskgraph/dsc.hpp"
#include "taskgraph/linear.hpp"

namespace uhcg::dse {
namespace {

// ---------------------------------------------------------------------------
// Fingerprints. 64-bit FNV-1a over canonical byte streams; the clustering
// fingerprint renumbers cluster ids by first appearance so strategy-specific
// labelings of the same partition collide.

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

std::uint64_t fnv1a(std::uint64_t hash, std::uint64_t value) {
    for (int byte = 0; byte < 8; ++byte) {
        hash ^= (value >> (byte * 8)) & 0xffu;
        hash *= kFnvPrime;
    }
    return hash;
}

std::uint64_t fnv1a(std::uint64_t hash, double value) {
    return fnv1a(hash, std::bit_cast<std::uint64_t>(value));
}

std::uint64_t graph_fingerprint(const taskgraph::TaskGraph& graph) {
    std::uint64_t h = fnv1a(kFnvOffset, graph.task_count());
    for (std::size_t t = 0; t < graph.task_count(); ++t)
        h = fnv1a(h, graph.weight(t));
    for (const taskgraph::Edge& e : graph.edges()) {
        h = fnv1a(h, e.from);
        h = fnv1a(h, e.to);
        h = fnv1a(h, e.cost);
    }
    return h;
}

std::uint64_t params_fingerprint(const sim::MpsocParams& p) {
    std::uint64_t h = fnv1a(kFnvOffset, p.cycles_per_work);
    h = fnv1a(h, p.swfifo_cost_per_byte);
    h = fnv1a(h, p.gfifo_cost_per_byte);
    h = fnv1a(h, p.bus_setup);
    return fnv1a(h, static_cast<std::uint64_t>(p.shared_bus));
}

// ---------------------------------------------------------------------------
// Process-wide memoization of simulate_mpsoc, so repeated budgets inside a
// sweep, the best_allocation convenience path and repeated explorations all
// pay for each unique (graph, clustering, cost model) exactly once.

struct CacheKey {
    std::uint64_t graph = 0;
    std::uint64_t clustering = 0;
    std::uint64_t params = 0;
    bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
    std::size_t operator()(const CacheKey& k) const {
        return static_cast<std::size_t>(
            fnv1a(fnv1a(fnv1a(kFnvOffset, k.graph), k.clustering), k.params));
    }
};

class SimulationCache {
public:
    bool lookup(const CacheKey& key, sim::MpsocResult& out) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++lookups_;
        auto it = map_.find(key);
        if (it == map_.end()) return false;
        ++hits_;
        it->second.stamp = ++stamp_;  // recency for trim()
        out = it->second.result;
        return true;
    }

    void insert(const CacheKey& key, const sim::MpsocResult& result) {
        std::lock_guard<std::mutex> lock(mutex_);
        // Crude bound: a sweep over huge generated apps must not grow the
        // process without limit; dropping everything keeps hits deterministic
        // per run (lookups happen before any insert of the same run).
        if (map_.size() >= kMaxEntries) map_.clear();
        map_.emplace(key, Entry{result, ++stamp_});
    }

    SimCacheStats stats() {
        std::lock_guard<std::mutex> lock(mutex_);
        return {map_.size(), lookups_, hits_};
    }

    void clear() {
        std::lock_guard<std::mutex> lock(mutex_);
        map_.clear();
        lookups_ = 0;
        hits_ = 0;
    }

    /// Least-recently-used eviction down to `max_entries` — the hook a
    /// resident host (the serve daemon) uses to keep the process-wide
    /// memo inside its memory budget instead of the all-or-nothing bound
    /// above. Returns the number of entries dropped.
    std::size_t trim(std::size_t max_entries) {
        std::lock_guard<std::mutex> lock(mutex_);
        if (map_.size() <= max_entries) return 0;
        std::vector<std::uint64_t> stamps;
        stamps.reserve(map_.size());
        for (const auto& [key, entry] : map_) stamps.push_back(entry.stamp);
        // The (size - max) smallest stamps are the eviction set.
        std::size_t drop = map_.size() - max_entries;
        std::nth_element(stamps.begin(), stamps.begin() + (drop - 1),
                         stamps.end());
        std::uint64_t threshold = stamps[drop - 1];
        std::size_t dropped = 0;
        for (auto it = map_.begin(); it != map_.end();) {
            if (it->second.stamp <= threshold) {
                it = map_.erase(it);
                ++dropped;
            } else {
                ++it;
            }
        }
        return dropped;
    }

private:
    static constexpr std::size_t kMaxEntries = 1u << 16;
    struct Entry {
        sim::MpsocResult result;
        std::uint64_t stamp = 0;  ///< monotone recency (insert or hit)
    };
    std::mutex mutex_;
    std::unordered_map<CacheKey, Entry, CacheKeyHash> map_;
    std::size_t lookups_ = 0;
    std::size_t hits_ = 0;
    std::uint64_t stamp_ = 0;
};

SimulationCache& cache() {
    static SimulationCache instance;
    return instance;
}

/// Candidates per pool task in the simulate sweep: enough that one
/// MpsocBatch's scratch amortizes, few enough to balance a few hundred
/// candidates over the pool.
constexpr std::size_t kSimulateGroup = 32;

/// One planned (strategy, budget, seed) candidate: name + how to build it.
struct Descriptor {
    std::string strategy;
    std::function<taskgraph::Clustering()> make;
};

void fill_metrics(Candidate& c, const sim::MpsocResult& r) {
    c.makespan = r.makespan;
    c.inter_traffic = r.inter_traffic;
    c.bus_busy = r.bus_busy;
    double busy = 0.0;
    for (double b : r.cpu_busy) busy += b;
    c.cpu_utilization =
        r.makespan > 0.0
            ? busy / (r.makespan * static_cast<double>(r.cpu_busy.size()))
            : 0.0;
}

}  // namespace

std::uint64_t clustering_fingerprint(const taskgraph::Clustering& clustering) {
    std::vector<int> canon(clustering.task_count(), -1);
    int next_id = 0;
    std::uint64_t h = fnv1a(kFnvOffset, clustering.task_count());
    for (std::size_t t = 0; t < clustering.task_count(); ++t) {
        int cluster = clustering.cluster_of(t);
        // Renumber by first appearance: label-invariant identity.
        int& dense = canon[static_cast<std::size_t>(cluster)];
        if (dense < 0) dense = next_id++;
        h = fnv1a(h, static_cast<std::uint64_t>(dense));
    }
    return h;
}

ExploreResult explore(const uml::Model& model, const core::CommModel& comm,
                      const ExploreOptions& options,
                      diag::DiagnosticEngine* /*engine*/) {
    obs::ObsSpan explore_span("dse.explore");
    taskgraph::TaskGraph graph = core::build_task_graph(model, comm);
    const std::size_t n = graph.task_count();

    ExploreResult result;
    if (n == 0) return result;
    const std::size_t max_cpus = options.max_processors == 0
                                     ? n
                                     : std::min(options.max_processors, n);
    const std::size_t jobs = core::effective_jobs(options.jobs);

    // 1. Plan every (strategy, budget, seed) candidate up front, in the
    //    fixed order the result exposes. Unbounded linear clustering picks
    //    its own processor count — the §4.2.3 default — and anchors the
    //    sweep; the per-budget strategies and random samples add diversity.
    //    Every linear entry folds the one critical-path sequence extracted
    //    in step 2 (the sequence does not depend on the budget).
    taskgraph::CriticalPaths paths;
    std::vector<Descriptor> plan;
    plan.reserve(2 + max_cpus * (3 + options.random_samples));
    plan.push_back({"linear", [&graph, &paths] {
                        return taskgraph::fold_critical_paths(graph, paths);
                    }});
    plan.push_back(
        {"dsc", [&graph] { return taskgraph::dsc_clustering(graph); }});
    for (std::size_t k = 1; k <= max_cpus; ++k) {
        plan.push_back({"linear/k", [&graph, &paths, k] {
                            return taskgraph::fold_critical_paths(graph, paths,
                                                                  {k});
                        }});
        plan.push_back({"load-balance", [&graph, k] {
                            return taskgraph::load_balance_clustering(graph, k);
                        }});
        plan.push_back({"round-robin", [&graph, k] {
                            return taskgraph::round_robin_clustering(graph, k);
                        }});
        for (std::size_t s = 0; s < options.random_samples; ++s)
            plan.push_back({"random", [&graph, k, s] {
                                return taskgraph::random_clustering(
                                    graph, k, 77 + k * 31 + s);
                            }});
    }

    // 2. Extract the critical paths once, then build the clusterings (each
    //    generator is independent and reads the graph and paths only).
    std::vector<taskgraph::Clustering> clusterings(plan.size(),
                                                   taskgraph::Clustering(0));
    {
        obs::ObsSpan span("dse.cluster-sweep");
        paths = taskgraph::extract_critical_paths(graph);
        core::parallel_for(plan.size(), jobs, [&](std::size_t i) {
            clusterings[i] = plan[i].make();
        });
    }

    // 3. Fingerprint and deduplicate *before* simulation: several strategies
    //    routinely produce the same partition (round-robin at k = n is the
    //    discrete clustering, bounded linear at large k repeats, ...).
    std::vector<std::uint64_t> fingerprints(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i)
        fingerprints[i] = clustering_fingerprint(clusterings[i]);
    std::unordered_map<std::uint64_t, std::size_t> slot_of;  // fp → slot
    slot_of.reserve(plan.size() * 2);
    std::vector<std::size_t> unique_index;  // slot → first candidate index
    unique_index.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        auto [it, inserted] =
            slot_of.emplace(fingerprints[i], unique_index.size());
        if (inserted) unique_index.push_back(i);
        (void)it;
    }

    // 4. Prepare the graph once (the per-(graph, params) precomputation,
    //    shared read-only by every worker), probe the memo cache per unique
    //    clustering, then fan the surviving evaluations out across the
    //    pool in fixed groups of kSimulateGroup: each group owns one
    //    MpsocBatch, so its scratch buffers are allocated once per group
    //    rather than once per candidate.
    const sim::MpsocPrep prep(graph, options.cost_model);
    const std::uint64_t graph_fp = graph_fingerprint(graph);
    const std::uint64_t params_fp = params_fingerprint(options.cost_model);
    std::vector<sim::MpsocResult> unique_results(unique_index.size());
    std::vector<std::size_t> to_simulate;
    to_simulate.reserve(unique_index.size());
    for (std::size_t slot = 0; slot < unique_index.size(); ++slot) {
        CacheKey key{graph_fp, fingerprints[unique_index[slot]], params_fp};
        if (!cache().lookup(key, unique_results[slot]))
            to_simulate.push_back(slot);
    }
    {
        obs::ObsSpan span("dse.simulate-sweep");
        const std::size_t groups =
            (to_simulate.size() + kSimulateGroup - 1) / kSimulateGroup;
        core::parallel_for(groups, jobs, [&](std::size_t g) {
            obs::ObsSpan group_span("sim.mpsoc-batch");
            sim::MpsocBatch batch(prep);
            const std::size_t end =
                std::min(to_simulate.size(), (g + 1) * kSimulateGroup);
            for (std::size_t t = g * kSimulateGroup; t < end; ++t) {
                std::size_t slot = to_simulate[t];
                unique_results[slot] =
                    batch.evaluate(clusterings[unique_index[slot]]);
            }
        });
    }
    for (std::size_t slot : to_simulate)
        cache().insert({graph_fp, fingerprints[unique_index[slot]], params_fp},
                       unique_results[slot]);

    // Optional oracle check: re-price every unique clustering on a fresh
    // evaluator (simulate_mpsoc, a batch of one) and require bitwise
    // equality with the group evaluators, whose scratch carried over from
    // earlier candidates.
    if (options.verify_full) {
        obs::ObsSpan span("dse.verify-full");
        core::parallel_for(unique_index.size(), jobs, [&](std::size_t slot) {
            sim::MpsocResult fresh = sim::simulate_mpsoc(
                graph, clusterings[unique_index[slot]], options.cost_model);
            const sim::MpsocResult& inc = unique_results[slot];
            bool same = fresh.makespan == inc.makespan &&
                        fresh.bus_busy == inc.bus_busy &&
                        fresh.inter_traffic == inc.inter_traffic &&
                        fresh.intra_traffic == inc.intra_traffic &&
                        fresh.bus_transfers == inc.bus_transfers &&
                        fresh.cpu_busy == inc.cpu_busy;
            if (!same)
                throw std::logic_error(
                    "dse verify-full: sweep metrics diverge from a fresh "
                    "simulation (strategy " +
                    plan[unique_index[slot]].strategy + ")");
        });
        result.stats.verified = unique_index.size();
    }

    // 5. Assemble candidates in plan order; every clustering moves, never
    //    copies, and duplicates reuse their representative's metrics.
    result.candidates.reserve(plan.size());
    for (std::size_t i = 0; i < plan.size(); ++i) {
        Candidate c{plan[i].strategy,
                    static_cast<std::size_t>(clusterings[i].cluster_count()),
                    std::move(clusterings[i])};
        c.fingerprint = fingerprints[i];
        fill_metrics(c, unique_results[slot_of.at(fingerprints[i])]);
        result.candidates.push_back(std::move(c));
    }
    result.stats.candidates = result.candidates.size();
    result.stats.unique_clusterings = unique_index.size();
    result.stats.duplicates_skipped =
        result.candidates.size() - unique_index.size();
    result.stats.simulations = to_simulate.size();
    result.stats.cache_hits = unique_index.size() - to_simulate.size();
    result.stats.jobs = jobs;
    obs::counter("dse.candidates").add(result.stats.candidates);
    obs::counter("dse.cache_hits").add(result.stats.cache_hits);
    obs::counter("dse.simulations").add(result.stats.simulations);
    obs::counter("dse.duplicates_skipped").add(result.stats.duplicates_skipped);
    if (result.stats.verified)
        obs::counter("dse.verified").add(result.stats.verified);

    // 6. Pareto front over (processors ↓, makespan ↓) in one sort-based
    //    O(m log m) pass. A candidate is dominated iff some candidate with
    //    strictly fewer processors has makespan <= its own + eps, or one
    //    with the same count has makespan < its own - eps.
    constexpr double kEps = 1e-9;
    std::vector<std::size_t> order(result.candidates.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        const Candidate& ca = result.candidates[a];
        const Candidate& cb = result.candidates[b];
        if (ca.processors != cb.processors) return ca.processors < cb.processors;
        if (ca.makespan != cb.makespan) return ca.makespan < cb.makespan;
        return a < b;
    });
    double best_fewer = std::numeric_limits<double>::infinity();
    for (std::size_t at = 0; at < order.size();) {
        std::size_t group_end = at;
        const std::size_t procs = result.candidates[order[at]].processors;
        double best_same = std::numeric_limits<double>::infinity();
        std::size_t representative = order.size();
        while (group_end < order.size() &&
               result.candidates[order[group_end]].processors == procs) {
            Candidate& c = result.candidates[order[group_end]];
            bool dominated = best_fewer <= c.makespan + kEps ||
                             best_same < c.makespan - kEps;
            c.pareto = !dominated;
            if (c.pareto && representative == order.size())
                representative = order[group_end];
            best_same = std::min(best_same, c.makespan);
            ++group_end;
        }
        // The front keeps one representative per processor count (ties are
        // common — several strategies can produce the same clustering): the
        // first in (makespan, index) order, matching the historical scan.
        if (representative != order.size())
            result.pareto_front.push_back(representative);
        best_fewer = std::min(best_fewer, best_same);
        at = group_end;
    }

    // 7. Recommendation: minimum makespan, ties broken toward fewer CPUs.
    result.best = 0;
    for (std::size_t i = 1; i < result.candidates.size(); ++i) {
        const Candidate& cur = result.candidates[i];
        const Candidate& best = result.candidates[result.best];
        if (cur.makespan < best.makespan - kEps ||
            (std::abs(cur.makespan - best.makespan) <= kEps &&
             cur.processors < best.processors))
            result.best = i;
    }
    return result;
}

std::optional<core::Allocation> to_allocation(const uml::Model& model,
                                              const Candidate& candidate,
                                              diag::DiagnosticEngine& engine) {
    auto threads = model.threads();
    if (threads.size() != candidate.clustering.task_count()) {
        engine.report(
            diag::Severity::Error, diag::codes::kDseMismatch,
            "candidate clustering covers " +
                std::to_string(candidate.clustering.task_count()) +
                " task(s) but model '" + model.name() + "' has " +
                std::to_string(threads.size()) + " thread(s)",
            {},
            {"candidates are only valid for the model whose exploration "
             "produced them — re-run dse::explore against this model"});
        return std::nullopt;
    }
    core::Allocation out;
    for (std::size_t p = 0; p < candidate.processors; ++p)
        out.add_processor("CPU" + std::to_string(p));
    for (std::size_t t = 0; t < threads.size(); ++t)
        out.assign(*threads[t],
                   static_cast<std::size_t>(candidate.clustering.cluster_of(t)));
    return out;
}

core::Allocation to_allocation(const uml::Model& model,
                               const Candidate& candidate) {
    diag::DiagnosticEngine engine;
    auto out = to_allocation(model, candidate, engine);
    if (!out)
        throw std::invalid_argument(engine.diagnostics().front().message);
    return *std::move(out);
}

std::optional<core::Allocation> best_allocation(const uml::Model& model,
                                                const core::CommModel& comm,
                                                diag::DiagnosticEngine& engine,
                                                const ExploreOptions& options) {
    ExploreResult result = explore(model, comm, options, &engine);
    if (result.candidates.empty()) {
        engine.report(diag::Severity::Error, diag::codes::kDseEmpty,
                      "nothing to explore: model '" + model.name() +
                          "' has no threads",
                      {},
                      {"the task graph mined from the sequence diagrams is "
                       "empty — declare <<SASchedRes>> objects first"});
        return std::nullopt;
    }
    return to_allocation(model, result.candidates[result.best], engine);
}

core::Allocation best_allocation(const uml::Model& model,
                                 const core::CommModel& comm,
                                 const ExploreOptions& options) {
    diag::DiagnosticEngine engine;
    auto out = best_allocation(model, comm, engine, options);
    if (!out) throw std::runtime_error(engine.diagnostics().front().message);
    return *std::move(out);
}

std::string format(const ExploreResult& result) {
    std::ostringstream out;
    out << "candidates=" << result.candidates.size() << "  pareto front:\n";
    for (std::size_t i : result.pareto_front) {
        const Candidate& c = result.candidates[i];
        out << "  CPUs=" << c.processors << "  makespan=" << c.makespan
            << "  inter=" << c.inter_traffic << "  util=" << c.cpu_utilization
            << "  [" << c.strategy << "]"
            << (i == result.best ? "  <= recommended" : "") << '\n';
    }
    return out.str();
}

SimCacheStats simulation_cache_stats() { return cache().stats(); }

void clear_simulation_cache() { cache().clear(); }

std::size_t trim_simulation_cache(std::size_t max_entries) {
    std::size_t dropped = cache().trim(max_entries);
    if (dropped) obs::counter("dse.cache_trimmed").add(dropped);
    return dropped;
}

}  // namespace uhcg::dse
