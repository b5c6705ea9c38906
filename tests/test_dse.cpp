// Tests for the design-space-exploration module (§6 future work:
// estimation-driven choice of the mapping solution).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <stdexcept>
#include <vector>

#include "cases/cases.hpp"
#include "core/pipeline.hpp"
#include "dse/explore.hpp"
#include "obs/obs.hpp"
#include "simulink/caam.hpp"
#include "taskgraph/linear.hpp"

namespace {

using namespace uhcg;
using namespace uhcg::dse;

class SyntheticDse : public ::testing::Test {
protected:
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    ExploreResult result = explore(syn, comm);
};

TEST_F(SyntheticDse, EvaluatesManyCandidates) {
    // linear + dsc + per-k (linear/k, load-balance, round-robin, 3 random).
    EXPECT_GE(result.candidates.size(), 2u + 12u * 6u);
    for (const Candidate& c : result.candidates) {
        EXPECT_GE(c.processors, 1u);
        EXPECT_LE(c.processors, 12u);
        EXPECT_GT(c.makespan, 0.0);
        EXPECT_GE(c.cpu_utilization, 0.0);
        EXPECT_LE(c.cpu_utilization, 1.0 + 1e-9);
    }
}

TEST_F(SyntheticDse, ParetoFrontIsMonotone) {
    ASSERT_FALSE(result.pareto_front.empty());
    // Along the front, more processors must strictly improve makespan.
    for (std::size_t i = 1; i < result.pareto_front.size(); ++i) {
        const Candidate& prev = result.candidates[result.pareto_front[i - 1]];
        const Candidate& cur = result.candidates[result.pareto_front[i]];
        EXPECT_GT(cur.processors, prev.processors);
        EXPECT_LT(cur.makespan, prev.makespan);
    }
    // Front members are flagged.
    for (std::size_t i : result.pareto_front)
        EXPECT_TRUE(result.candidates[i].pareto);
}

TEST_F(SyntheticDse, BestIsUndominatedAndMinMakespan) {
    const Candidate& best = result.candidates[result.best];
    for (const Candidate& c : result.candidates)
        EXPECT_GE(c.makespan, best.makespan - 1e-9);
    EXPECT_TRUE(best.pareto);
}

TEST_F(SyntheticDse, RecommendationBeatsSingleCpu) {
    double single = 0.0;
    for (const Candidate& c : result.candidates)
        if (c.processors == 1) single = std::max(single, c.makespan);
    EXPECT_LT(result.candidates[result.best].makespan, single);
}

TEST_F(SyntheticDse, AllocationFeedsTheMapper) {
    core::Allocation alloc = to_allocation(syn, result.candidates[result.best]);
    EXPECT_EQ(alloc.processor_count(),
              result.candidates[result.best].processors);
    for (const uml::ObjectInstance* t : syn.threads())
        EXPECT_TRUE(alloc.is_assigned(*t));
    // And the full flow accepts it: run the mapping with this allocation.
    core::MappingOutput mapped =
        core::run_mapping(syn, comm, alloc);
    EXPECT_TRUE(mapped.warnings.empty());
}

TEST_F(SyntheticDse, BestAllocationConvenience) {
    core::Allocation alloc = best_allocation(syn, comm);
    EXPECT_GE(alloc.processor_count(), 1u);
    EXPECT_LE(alloc.processor_count(), 12u);
}

TEST_F(SyntheticDse, FormatMentionsRecommendation) {
    std::string text = format(result);
    EXPECT_NE(text.find("recommended"), std::string::npos);
    EXPECT_NE(text.find("pareto front"), std::string::npos);
}

TEST(Dse, ProcessorBudgetRespected) {
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    ExploreOptions options;
    options.max_processors = 3;
    ExploreResult result = explore(syn, comm, options);
    for (const Candidate& c : result.candidates) {
        if (c.strategy == "linear" || c.strategy == "dsc")
            continue;  // the unbounded anchors may exceed the budget
        EXPECT_LE(c.processors, 3u);
    }
}

TEST(Dse, CostModelShiftsTheFront) {
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    ExploreOptions cheap_comm;
    cheap_comm.cost_model.gfifo_cost_per_byte = 0.1;
    cheap_comm.cost_model.bus_setup = 0.0;
    ExploreOptions dear_comm;
    dear_comm.cost_model.gfifo_cost_per_byte = 100.0;
    ExploreResult cheap = explore(syn, comm, cheap_comm);
    ExploreResult dear = explore(syn, comm, dear_comm);
    std::size_t cpus_cheap = cheap.candidates[cheap.best].processors;
    std::size_t cpus_dear = dear.candidates[dear.best].processors;
    // Expensive communication pushes the recommendation toward fewer CPUs.
    EXPECT_LE(cpus_dear, cpus_cheap);
}

TEST(Dse, EmptyModelYieldsEmptyResult) {
    uml::Model empty("empty");
    core::CommModel comm = core::analyze_communication(empty);
    ExploreResult result = explore(empty, comm);
    EXPECT_TRUE(result.candidates.empty());
    EXPECT_THROW(best_allocation(empty, comm), std::runtime_error);
}

TEST(Dse, MismatchedCandidateRejected) {
    uml::Model syn = cases::synthetic_model();
    Candidate wrong;
    wrong.processors = 1;
    wrong.clustering = taskgraph::Clustering(3);  // 3 ≠ 12 threads
    EXPECT_THROW(to_allocation(syn, wrong), std::invalid_argument);
}

TEST(DseParallel, JobCountDoesNotChangeResults) {
    // The acceptance bar for the parallel sweep: byte-identical rankings
    // for any job count, across case studies. (The crane is out: its
    // closed control loop makes the mined task graph cyclic, which the
    // clustering sweep rejects by design.)
    auto random16 = [] { return cases::random_application(5, 16, 4); };
    for (auto make : {std::function<uml::Model()>(&cases::didactic_model),
                      std::function<uml::Model()>(&cases::synthetic_model),
                      std::function<uml::Model()>(random16)}) {
        uml::Model model = make();
        core::CommModel comm = core::analyze_communication(model);
        ExploreOptions serial;
        serial.jobs = 1;
        ExploreOptions parallel;
        parallel.jobs = 8;
        ExploreResult a = explore(model, comm, serial);
        ExploreResult b = explore(model, comm, parallel);
        EXPECT_EQ(format(a), format(b));
        EXPECT_EQ(a.best, b.best);
        EXPECT_EQ(a.pareto_front, b.pareto_front);
        ASSERT_EQ(a.candidates.size(), b.candidates.size());
        for (std::size_t i = 0; i < a.candidates.size(); ++i) {
            EXPECT_EQ(a.candidates[i].strategy, b.candidates[i].strategy);
            EXPECT_EQ(a.candidates[i].processors, b.candidates[i].processors);
            EXPECT_EQ(a.candidates[i].fingerprint, b.candidates[i].fingerprint);
            EXPECT_DOUBLE_EQ(a.candidates[i].makespan, b.candidates[i].makespan);
            EXPECT_EQ(a.candidates[i].pareto, b.candidates[i].pareto);
        }
        EXPECT_EQ(a.stats.unique_clusterings, b.stats.unique_clusterings);
    }
}

TEST(DseSweep, LinearEntriesEqualStandaloneLinearClustering) {
    // The sweep extracts the critical paths once and folds them per
    // budget; every linear entry must still be exactly the clustering a
    // standalone linear_clustering call returns for that budget.
    auto random40 = [] { return cases::random_application(5, 40, 4); };
    auto random60 = [] { return cases::random_application(9, 60, 12); };
    for (auto make : {std::function<uml::Model()>(&cases::synthetic_model),
                      std::function<uml::Model()>(random40),
                      std::function<uml::Model()>(random60)}) {
        uml::Model model = make();
        core::CommModel comm = core::analyze_communication(model);
        taskgraph::TaskGraph graph = core::build_task_graph(model, comm);
        obs::Counter& extractions = obs::counter("taskgraph.path_extractions");
        const std::uint64_t before = extractions.value();
        ExploreOptions options;
        options.jobs = 4;
        options.random_samples = 0;
        ExploreResult r = explore(model, comm, options);
        EXPECT_EQ(extractions.value() - before, 1u);
        std::size_t k = 0;
        for (const Candidate& c : r.candidates) {
            if (c.strategy == "linear") {
                EXPECT_EQ(c.fingerprint, clustering_fingerprint(
                                             taskgraph::linear_clustering(graph)));
            } else if (c.strategy == "linear/k") {
                ++k;
                EXPECT_EQ(c.fingerprint,
                          clustering_fingerprint(
                              taskgraph::linear_clustering(graph, {k})))
                    << model.name() << " k=" << k;
            }
        }
        EXPECT_EQ(k, graph.task_count());
    }
}

TEST(DseParallel, DuplicateClusteringsSimulatedExactlyOnce) {
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    clear_simulation_cache();
    ExploreOptions options;
    options.jobs = 4;
    ExploreResult result = explore(syn, comm, options);
    const ExploreStats& s = result.stats;
    EXPECT_EQ(s.candidates, result.candidates.size());
    // Cold cache: every unique clustering simulated once, nothing cached.
    EXPECT_EQ(s.cache_hits, 0u);
    EXPECT_EQ(s.simulations, s.unique_clusterings);
    EXPECT_EQ(s.candidates, s.simulations + s.duplicates_skipped + s.cache_hits);
    // The sweep provably repeats itself (round-robin at k=n is the discrete
    // clustering, bounded linear saturates, ...).
    EXPECT_GT(s.duplicates_skipped, 0u);
    // Identical fingerprints must carry identical metrics.
    std::map<std::uint64_t, double> makespan_of;
    for (const Candidate& c : result.candidates) {
        auto [it, inserted] = makespan_of.emplace(c.fingerprint, c.makespan);
        if (!inserted) {
            EXPECT_DOUBLE_EQ(it->second, c.makespan);
        }
    }
    EXPECT_EQ(makespan_of.size(), s.unique_clusterings);
}

TEST(DseParallel, MemoCacheServesRepeatedExploration) {
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    clear_simulation_cache();
    ExploreResult first = explore(syn, comm);
    ExploreResult second = explore(syn, comm);
    EXPECT_EQ(second.stats.simulations, 0u);
    EXPECT_EQ(second.stats.cache_hits, second.stats.unique_clusterings);
    EXPECT_EQ(format(first), format(second));
    EXPECT_EQ(first.best, second.best);
    // A different cost model is a different cache key — it must re-simulate.
    ExploreOptions shifted;
    shifted.cost_model.gfifo_cost_per_byte = 99.0;
    ExploreResult other = explore(syn, comm, shifted);
    EXPECT_EQ(other.stats.simulations, other.stats.unique_clusterings);
    EXPECT_EQ(other.stats.cache_hits, 0u);
}

TEST(DseParallel, FingerprintIsLabelInvariant) {
    taskgraph::Clustering a =
        taskgraph::Clustering::from_assignment({0, 0, 1, 2, 1});
    taskgraph::Clustering b =
        taskgraph::Clustering::from_assignment({2, 2, 0, 1, 0});
    EXPECT_EQ(clustering_fingerprint(a), clustering_fingerprint(b));
    taskgraph::Clustering c =
        taskgraph::Clustering::from_assignment({0, 1, 1, 2, 1});
    EXPECT_NE(clustering_fingerprint(a), clustering_fingerprint(c));
}

TEST(Dse, MismatchReportsStructuredDiagnostic) {
    uml::Model syn = cases::synthetic_model();
    Candidate wrong;
    wrong.processors = 1;
    wrong.clustering = taskgraph::Clustering(3);  // 3 ≠ 12 threads
    diag::DiagnosticEngine engine;
    EXPECT_EQ(to_allocation(syn, wrong, engine), std::nullopt);
    EXPECT_TRUE(engine.has_errors());
    EXPECT_EQ(engine.count_code(diag::codes::kDseMismatch), 1u);
}

TEST(Dse, EmptyModelReportsStructuredDiagnostic) {
    uml::Model empty("empty");
    core::CommModel comm = core::analyze_communication(empty);
    diag::DiagnosticEngine engine;
    EXPECT_EQ(best_allocation(empty, comm, engine), std::nullopt);
    EXPECT_TRUE(engine.has_errors());
    EXPECT_EQ(engine.count_code(diag::codes::kDseEmpty), 1u);
}

TEST(Dse, RandomApplicationsExploreCleanly) {
    for (std::uint64_t seed : {1u, 2u, 3u}) {
        uml::Model app = cases::random_application(seed, 12, 3);
        core::CommModel comm = core::analyze_communication(app);
        ExploreOptions options;
        options.random_samples = 1;
        ExploreResult result = explore(app, comm, options);
        ASSERT_FALSE(result.candidates.empty());
        EXPECT_FALSE(result.pareto_front.empty());
        const Candidate& best = result.candidates[result.best];
        EXPECT_TRUE(best.pareto);
    }
}

// --- the grouped simulate sweep -----------------------------------------------

TEST(DseSweep, JobsDoNotChangeResults) {
    // Byte-identical rankings for any job count: the sweep's fixed groups
    // and per-slot results make the fan-out invisible in the output.
    uml::Model app = cases::random_application(5, 16, 4);
    core::CommModel comm = core::analyze_communication(app);
    ExploreOptions reference;
    reference.jobs = 1;
    clear_simulation_cache();
    ExploreResult ref = explore(app, comm, reference);
    for (std::size_t jobs : {std::size_t{2}, std::size_t{4}, std::size_t{8}}) {
        ExploreOptions options;
        options.jobs = jobs;
        clear_simulation_cache();
        ExploreResult r = explore(app, comm, options);
        EXPECT_EQ(format(ref), format(r)) << "jobs=" << jobs;
        EXPECT_EQ(ref.best, r.best);
        EXPECT_EQ(ref.pareto_front, r.pareto_front);
        ASSERT_EQ(ref.candidates.size(), r.candidates.size());
        for (std::size_t i = 0; i < ref.candidates.size(); ++i) {
            // Bitwise, not approximate: every evaluation runs the same
            // arithmetic whichever worker and group prices it.
            EXPECT_EQ(ref.candidates[i].makespan, r.candidates[i].makespan);
            EXPECT_EQ(ref.candidates[i].inter_traffic,
                      r.candidates[i].inter_traffic);
            EXPECT_EQ(ref.candidates[i].bus_busy, r.candidates[i].bus_busy);
        }
    }
    clear_simulation_cache();
}

TEST(DseSweep, VerifyFullMatchesFreshSimulation) {
    // --dse-verify-full re-simulates every unique clustering on a fresh
    // evaluator and throws on any metric divergence; a clean pass is the
    // oracle check that scratch reuse across a group changes nothing.
    for (std::size_t jobs : {std::size_t{1}, std::size_t{2}}) {
        uml::Model app = cases::random_application(7, 14, 4);
        core::CommModel comm = core::analyze_communication(app);
        ExploreOptions options;
        options.verify_full = true;
        options.jobs = jobs;
        clear_simulation_cache();
        ExploreResult r = explore(app, comm, options);
        EXPECT_EQ(r.stats.verified, r.stats.unique_clusterings);
        EXPECT_GT(r.stats.verified, 0u);
    }
    clear_simulation_cache();
}

TEST(Dse, SimulationCacheTrimBoundsResidencyLru) {
    clear_simulation_cache();
    uml::Model syn = cases::synthetic_model();
    core::CommModel comm = core::analyze_communication(syn);
    (void)explore(syn, comm);
    SimCacheStats before = simulation_cache_stats();
    ASSERT_GT(before.entries, 1u);

    std::size_t dropped = trim_simulation_cache(1);
    EXPECT_EQ(dropped, before.entries - 1);
    EXPECT_EQ(simulation_cache_stats().entries, 1u);
    // Already under the bound: trimming again is a no-op.
    EXPECT_EQ(trim_simulation_cache(1), 0u);
    clear_simulation_cache();
}

}  // namespace
