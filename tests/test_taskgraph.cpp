// Tests for task graphs, clustering metrics, linear clustering (§4.2.3),
// DSC and baseline allocators — including property-style parameterized
// sweeps over random DAGs.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <random>
#include <stdexcept>
#include <vector>

#include "taskgraph/baselines.hpp"
#include "taskgraph/clustering.hpp"
#include "taskgraph/dot.hpp"
#include "taskgraph/dsc.hpp"
#include "taskgraph/generate.hpp"
#include "taskgraph/graph.hpp"
#include "taskgraph/linear.hpp"

namespace {

using namespace uhcg::taskgraph;

TEST(TaskGraph, BasicConstruction) {
    TaskGraph g;
    TaskIndex a = g.add_task("a", 2.0);
    TaskIndex b = g.add_task("b");
    g.add_edge(a, b, 5.0);
    EXPECT_EQ(g.task_count(), 2u);
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_DOUBLE_EQ(g.weight(a), 2.0);
    EXPECT_DOUBLE_EQ(g.edge_cost(a, b), 5.0);
    EXPECT_DOUBLE_EQ(g.edge_cost(b, a), 0.0);
    EXPECT_EQ(g.find("b"), b);
    EXPECT_FALSE(g.find("zzz").has_value());
}

TEST(TaskGraph, ParallelEdgesMerge) {
    TaskGraph g;
    TaskIndex a = g.add_task("a");
    TaskIndex b = g.add_task("b");
    g.add_edge(a, b, 3.0);
    g.add_edge(a, b, 4.0);
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_DOUBLE_EQ(g.edge_cost(a, b), 7.0);
}

TEST(TaskGraph, SelfEdgeRejected) {
    TaskGraph g;
    TaskIndex a = g.add_task("a");
    EXPECT_THROW(g.add_edge(a, a, 1.0), std::invalid_argument);
    EXPECT_THROW(g.add_edge(a, 99, 1.0), std::out_of_range);
}

TEST(TaskGraph, TopologicalOrderAndCycles) {
    TaskGraph g;
    TaskIndex a = g.add_task("a");
    TaskIndex b = g.add_task("b");
    TaskIndex c = g.add_task("c");
    g.add_edge(a, b, 1.0);
    g.add_edge(b, c, 1.0);
    EXPECT_TRUE(g.is_acyclic());
    auto order = g.topological_order();
    EXPECT_EQ(order, (std::vector<TaskIndex>{a, b, c}));
    g.add_edge(c, a, 1.0);
    EXPECT_FALSE(g.is_acyclic());
    EXPECT_THROW(g.topological_order(), std::logic_error);
}

TEST(TaskGraph, LevelsAndCriticalPath) {
    // Diamond: a → {b heavy, c light} → d.
    TaskGraph g;
    TaskIndex a = g.add_task("a", 1);
    TaskIndex b = g.add_task("b", 5);
    TaskIndex c = g.add_task("c", 1);
    TaskIndex d = g.add_task("d", 1);
    g.add_edge(a, b, 2);
    g.add_edge(a, c, 2);
    g.add_edge(b, d, 3);
    g.add_edge(c, d, 3);
    auto tl = g.top_levels();
    EXPECT_DOUBLE_EQ(tl[a], 0.0);
    EXPECT_DOUBLE_EQ(tl[b], 3.0);                       // a(1) + edge(2)
    EXPECT_DOUBLE_EQ(tl[d], 3.0 + 5.0 + 3.0);           // via b
    EXPECT_DOUBLE_EQ(g.critical_path_length(), 12.0);   // a,2,b,3,d + weights
    auto cp = g.critical_path();
    EXPECT_EQ(cp, (std::vector<TaskIndex>{a, b, d}));
    EXPECT_DOUBLE_EQ(g.total_weight(), 8.0);
    EXPECT_DOUBLE_EQ(g.total_edge_cost(), 10.0);
}

TEST(Clustering, MergeAndGroups) {
    Clustering c(4);
    EXPECT_EQ(c.cluster_count(), 4);
    c.merge(0, 2);
    EXPECT_TRUE(c.same_cluster(0, 2));
    EXPECT_EQ(c.cluster_count(), 3);
    auto groups = c.groups();
    EXPECT_EQ(groups.size(), 3u);
    EXPECT_EQ(groups[0], (std::vector<TaskIndex>{0, 2}));
}

TEST(Clustering, FromAssignmentNormalizes) {
    Clustering c = Clustering::from_assignment({7, 3, 7, 9});
    EXPECT_EQ(c.cluster_count(), 3);
    EXPECT_EQ(c.cluster_of(0), 0);
    EXPECT_EQ(c.cluster_of(1), 1);
    EXPECT_EQ(c.cluster_of(2), 0);
    EXPECT_EQ(c.cluster_of(3), 2);
    EXPECT_THROW(Clustering::from_assignment({0, -1, 1}), std::invalid_argument);
}

TEST(Clustering, CostMetricsPartitionTotal) {
    TaskGraph g = paper_synthetic_graph();
    Clustering c = linear_clustering(g);
    EXPECT_DOUBLE_EQ(inter_cluster_cost(g, c) + intra_cluster_cost(g, c),
                     g.total_edge_cost());
}

TEST(Clustering, MakespanSingleClusterIsSequential) {
    TaskGraph g = paper_synthetic_graph();
    Clustering c = single_cluster(g);
    EXPECT_DOUBLE_EQ(scheduled_makespan(g, c), g.total_weight());
}

TEST(Clustering, IsLinearDetectsParallelCohabitation) {
    TaskGraph g = fork_join_graph(2, 1, 1.0, 1.0);  // src, sink, 2 chain nodes
    // Putting both (independent) chain nodes together is non-linear.
    Clustering bad = Clustering::from_assignment({0, 1, 2, 2});
    EXPECT_FALSE(is_linear(g, bad));
    Clustering good(4);
    EXPECT_TRUE(is_linear(g, good));
}

TEST(Clustering, FormatNamesClusters) {
    TaskGraph g;
    g.add_task("x");
    g.add_task("y");
    Clustering c = Clustering::from_assignment({0, 0});
    EXPECT_EQ(format(g, c), "CPU0 { x y }");
}

// --- the paper's result (Fig. 7) -------------------------------------------------

TEST(LinearClustering, ReproducesFig7Grouping) {
    TaskGraph g = paper_synthetic_graph();
    Clustering c = linear_clustering(g);
    ASSERT_EQ(c.cluster_count(), 4);
    auto cluster_named = [&](const char* name) {
        return c.cluster_of(*g.find(name));
    };
    // CPU0 = the critical path A-B-C-D-F-J.
    EXPECT_EQ(cluster_named("A"), 0);
    EXPECT_EQ(cluster_named("B"), 0);
    EXPECT_EQ(cluster_named("C"), 0);
    EXPECT_EQ(cluster_named("D"), 0);
    EXPECT_EQ(cluster_named("F"), 0);
    EXPECT_EQ(cluster_named("J"), 0);
    // The side chains pair up exactly as Fig. 7(b).
    EXPECT_EQ(cluster_named("E"), cluster_named("I"));
    EXPECT_EQ(cluster_named("G"), cluster_named("M"));
    EXPECT_EQ(cluster_named("H"), cluster_named("L"));
    EXPECT_NE(cluster_named("E"), cluster_named("G"));
    EXPECT_NE(cluster_named("G"), cluster_named("H"));
}

TEST(LinearClustering, CriticalPathStaysTogether) {
    TaskGraph g = paper_synthetic_graph();
    Clustering c = linear_clustering(g);
    auto cp = g.critical_path();
    for (std::size_t i = 1; i < cp.size(); ++i)
        EXPECT_TRUE(c.same_cluster(cp[0], cp[i]))
            << "critical-path task " << g.name(cp[i]) << " split off";
}

TEST(LinearClustering, ChainCollapsesToOneCluster) {
    TaskGraph g = chain_graph(10, 1.0, 2.0);
    Clustering c = linear_clustering(g);
    EXPECT_EQ(c.cluster_count(), 1);
    EXPECT_DOUBLE_EQ(inter_cluster_cost(g, c), 0.0);
}

TEST(LinearClustering, ForkJoinSeparatesChains) {
    TaskGraph g = fork_join_graph(4, 3, 1.0, 5.0);
    Clustering c = linear_clustering(g);
    // One cluster carries src + one chain + sink; each remaining chain is
    // its own cluster.
    EXPECT_EQ(c.cluster_count(), 4);
    EXPECT_TRUE(is_linear(g, c));
}

TEST(LinearClustering, MaxClustersFoldsExtraPaths) {
    TaskGraph g = fork_join_graph(6, 2, 1.0, 1.0);
    LinearClusteringOptions options;
    options.max_clusters = 3;
    Clustering c = linear_clustering(g, options);
    EXPECT_LE(c.cluster_count(), 3);
    // Every task is still assigned.
    for (TaskIndex t = 0; t < g.task_count(); ++t)
        EXPECT_GE(c.cluster_of(t), 0);
}

TEST(LinearClustering, EmptyAndSingletonGraphs) {
    TaskGraph empty;
    EXPECT_EQ(linear_clustering(empty).cluster_count(), 0);
    TaskGraph one;
    one.add_task("only");
    Clustering c = linear_clustering(one);
    EXPECT_EQ(c.cluster_count(), 1);
}

TEST(LinearClustering, IsolatedTasksGetOwnClusters) {
    TaskGraph g;
    g.add_task("a");
    g.add_task("b");
    g.add_task("c");
    Clustering c = linear_clustering(g);
    EXPECT_EQ(c.cluster_count(), 3);
}

// --- DSC and baselines ------------------------------------------------------------

TEST(Dsc, NeverWorseThanDiscreteOnChains) {
    TaskGraph g = chain_graph(8, 1.0, 4.0);
    Clustering dsc = dsc_clustering(g);
    Clustering discrete(g.task_count());
    EXPECT_LE(scheduled_makespan(g, dsc), scheduled_makespan(g, discrete));
    EXPECT_EQ(dsc.cluster_count(), 1);  // a chain zips into one cluster
}

TEST(Dsc, HandlesPaperGraph) {
    TaskGraph g = paper_synthetic_graph();
    Clustering c = dsc_clustering(g);
    EXPECT_GE(c.cluster_count(), 1);
    EXPECT_LE(scheduled_makespan(g, c),
              scheduled_makespan(g, Clustering(g.task_count())));
}

TEST(Baselines, RoundRobinShape) {
    TaskGraph g = paper_synthetic_graph();
    Clustering c = round_robin_clustering(g, 4);
    EXPECT_EQ(c.cluster_count(), 4);
    EXPECT_EQ(c.cluster_of(0), c.cluster_of(4));
    EXPECT_THROW(round_robin_clustering(g, 0), std::invalid_argument);
}

TEST(Baselines, RandomIsDeterministicPerSeed) {
    TaskGraph g = paper_synthetic_graph();
    Clustering a = random_clustering(g, 4, 42);
    Clustering b = random_clustering(g, 4, 42);
    for (TaskIndex t = 0; t < g.task_count(); ++t)
        EXPECT_EQ(a.cluster_of(t), b.cluster_of(t));
}

TEST(Baselines, LoadBalanceBalancesWeight) {
    TaskGraph g;
    for (int i = 0; i < 8; ++i) g.add_task("t" + std::to_string(i), 1.0 + i);
    Clustering c = load_balance_clustering(g, 2);
    double load[2] = {0, 0};
    for (TaskIndex t = 0; t < g.task_count(); ++t)
        load[c.cluster_of(t)] += g.weight(t);
    EXPECT_NEAR(load[0], load[1], 2.0);
}

// --- generators --------------------------------------------------------------------

TEST(Generators, RandomLayeredDagIsAcyclicAndSized) {
    RandomDagOptions options;
    options.tasks = 40;
    options.layers = 5;
    TaskGraph g = random_layered_dag(options);
    EXPECT_EQ(g.task_count(), 40u);
    EXPECT_TRUE(g.is_acyclic());
    EXPECT_GT(g.edge_count(), 0u);
}

TEST(Generators, DeterministicPerSeed) {
    RandomDagOptions options;
    options.seed = 99;
    TaskGraph a = random_layered_dag(options);
    TaskGraph b = random_layered_dag(options);
    EXPECT_EQ(a.edge_count(), b.edge_count());
    EXPECT_DOUBLE_EQ(a.total_edge_cost(), b.total_edge_cost());
}

// --- property sweep over random DAGs -------------------------------------------------

class LinearClusteringProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LinearClusteringProperty, InvariantsHoldOnRandomDags) {
    RandomDagOptions options;
    options.tasks = 30;
    options.layers = 6;
    options.seed = GetParam();
    TaskGraph g = random_layered_dag(options);
    Clustering c = linear_clustering(g);

    // P1: complete assignment to a dense range.
    for (TaskIndex t = 0; t < g.task_count(); ++t) {
        EXPECT_GE(c.cluster_of(t), 0);
        EXPECT_LT(c.cluster_of(t), c.cluster_count());
    }
    // P2: linearity — no two independent tasks share a cluster.
    EXPECT_TRUE(is_linear(g, c));
    // P3: the critical path lands in one cluster.
    auto cp = g.critical_path();
    for (std::size_t i = 1; i < cp.size(); ++i)
        EXPECT_TRUE(c.same_cluster(cp[0], cp[i]));
    // P4: determinism.
    Clustering again = linear_clustering(g);
    for (TaskIndex t = 0; t < g.task_count(); ++t)
        EXPECT_EQ(c.cluster_of(t), again.cluster_of(t));
    // P5: cost metrics partition the traffic.
    EXPECT_NEAR(inter_cluster_cost(g, c) + intra_cluster_cost(g, c),
                g.total_edge_cost(), 1e-9);
}

TEST_P(LinearClusteringProperty, BeatsRandomOnInterClusterTraffic) {
    RandomDagOptions options;
    options.tasks = 30;
    options.layers = 6;
    options.seed = GetParam();
    TaskGraph g = random_layered_dag(options);
    Clustering lc = linear_clustering(g);
    auto k = static_cast<std::size_t>(lc.cluster_count());
    // Average several random allocations with the same processor count:
    // linear clustering must cut traffic versus the random mean.
    double random_mean = 0.0;
    const int samples = 5;
    for (int s = 0; s < samples; ++s)
        random_mean +=
            inter_cluster_cost(g, random_clustering(g, k, options.seed + s));
    random_mean /= samples;
    EXPECT_LE(inter_cluster_cost(g, lc), random_mean);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LinearClusteringProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34, 55, 89));

class MakespanProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MakespanProperty, MakespanBounds) {
    RandomDagOptions options;
    options.tasks = 24;
    options.layers = 4;
    options.seed = GetParam();
    TaskGraph g = random_layered_dag(options);
    for (const Clustering& c :
         {linear_clustering(g), dsc_clustering(g), single_cluster(g),
          round_robin_clustering(g, 4)}) {
        double ms = scheduled_makespan(g, c);
        // Makespan can never beat the pure critical path of node weights
        // and never exceeds sequential execution plus full communication.
        double node_cp = 0.0;
        {
            // critical path ignoring communication
            auto order = g.topological_order();
            std::vector<double> finish(g.task_count(), 0.0);
            for (TaskIndex t : order) {
                double start = 0.0;
                for (std::size_t e : g.in_edges(t))
                    start = std::max(start, finish[g.edge(e).from]);
                finish[t] = start + g.weight(t);
                node_cp = std::max(node_cp, finish[t]);
            }
        }
        EXPECT_GE(ms, node_cp - 1e-9);
        EXPECT_LE(ms, g.total_weight() + g.total_edge_cost() + 1e-9);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MakespanProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88));

// --- reference oracles ----------------------------------------------------------------
//
// Straightforward earlier versions of the topological sort, linear clustering
// and load balancing, kept here as independent oracles: the library versions
// share one path extraction across budgets and use heaps, and must still
// produce exactly these results.

namespace reference {

/// Kahn's algorithm, taking the smallest ready index by linear scan.
std::vector<TaskIndex> topological_order(const TaskGraph& g) {
    std::vector<std::size_t> indegree(g.task_count());
    for (const Edge& e : g.edges()) ++indegree[e.to];
    std::vector<TaskIndex> order;
    std::vector<TaskIndex> ready;
    for (TaskIndex t = 0; t < g.task_count(); ++t)
        if (indegree[t] == 0) ready.push_back(t);
    while (!ready.empty()) {
        auto it = std::min_element(ready.begin(), ready.end());
        TaskIndex t = *it;
        ready.erase(it);
        order.push_back(t);
        for (std::size_t e : g.out_edges(t))
            if (--indegree[g.edge(e).to] == 0) ready.push_back(g.edge(e).to);
    }
    return order;
}

/// The same scan on bare successor lists, as the simulator, the C emitter
/// and the pass manager each used to run it: the order, and the vertices
/// left with a non-zero indegree.
struct KahnResult {
    std::vector<std::size_t> order;
    std::vector<std::size_t> stuck;
};
KahnResult kahn(const std::vector<std::vector<std::size_t>>& successors) {
    std::vector<std::size_t> indegree(successors.size(), 0);
    for (const auto& next : successors)
        for (std::size_t v : next) ++indegree[v];
    KahnResult result;
    std::vector<std::size_t> ready;
    for (std::size_t v = 0; v < successors.size(); ++v)
        if (indegree[v] == 0) ready.push_back(v);
    while (!ready.empty()) {
        auto it = std::min_element(ready.begin(), ready.end());
        std::size_t v = *it;
        ready.erase(it);
        result.order.push_back(v);
        for (std::size_t w : successors[v])
            if (--indegree[w] == 0) ready.push_back(w);
    }
    for (std::size_t v = 0; v < successors.size(); ++v)
        if (indegree[v] != 0) result.stuck.push_back(v);
    return result;
}

/// Dense renumbering by first appearance through an ordered map.
std::vector<int> normalized(std::vector<int> assignment) {
    std::map<int, int> remap;
    int next = 0;
    for (int& id : assignment) {
        auto [it, inserted] = remap.emplace(id, next);
        if (inserted) ++next;
        id = it->second;
    }
    return assignment;
}

/// Longest node+edge path over the unmarked tasks; ties toward the
/// smallest end index.
std::vector<TaskIndex> restricted_critical_path(const TaskGraph& g,
                                                const std::vector<TaskIndex>& order,
                                                const std::vector<bool>& marked) {
    const std::size_t n = g.task_count();
    std::vector<double> best(n, -1.0);
    std::vector<std::ptrdiff_t> pred(n, -1);
    for (TaskIndex t : order) {
        if (marked[t]) continue;
        best[t] = std::max(best[t], g.weight(t));
        for (std::size_t e : g.out_edges(t)) {
            const Edge& edge = g.edge(e);
            if (marked[edge.to]) continue;
            double candidate = best[t] + edge.cost + g.weight(edge.to);
            if (candidate > best[edge.to]) {
                best[edge.to] = candidate;
                pred[edge.to] = static_cast<std::ptrdiff_t>(t);
            }
        }
    }
    std::ptrdiff_t end = -1;
    double best_len = -1.0;
    for (TaskIndex t = 0; t < n; ++t) {
        if (marked[t]) continue;
        if (best[t] > best_len + 1e-12) {
            best_len = best[t];
            end = static_cast<std::ptrdiff_t>(t);
        }
    }
    std::vector<TaskIndex> path;
    for (std::ptrdiff_t t = end; t >= 0; t = pred[t])
        path.push_back(static_cast<TaskIndex>(t));
    std::reverse(path.begin(), path.end());
    return path;
}

/// Linear clustering that re-extracts every path from scratch for the
/// given budget and folds by scanning for the lightest cluster. The
/// topological order is a function of the graph alone, so computing it once
/// per call gives the same paths as recomputing it per path.
std::vector<int> linear_clustering(const TaskGraph& g, std::size_t max_clusters) {
    const std::size_t n = g.task_count();
    const std::vector<TaskIndex> order = topological_order(g);
    std::vector<bool> marked(n, false);
    std::vector<int> assignment(n, -1);
    std::vector<double> cluster_weight;
    int next_cluster = 0;
    for (;;) {
        std::vector<TaskIndex> path = restricted_critical_path(g, order, marked);
        if (path.empty()) break;
        double path_weight = 0.0;
        for (TaskIndex t : path) path_weight += g.weight(t);
        int cluster;
        if (max_clusters != 0 &&
            static_cast<std::size_t>(next_cluster) >= max_clusters) {
            cluster = 0;
            for (int c = 1; c < next_cluster; ++c)
                if (cluster_weight[c] < cluster_weight[cluster]) cluster = c;
            cluster_weight[cluster] += path_weight;
        } else {
            cluster = next_cluster++;
            cluster_weight.push_back(path_weight);
        }
        for (TaskIndex t : path) {
            assignment[t] = cluster;
            marked[t] = true;
        }
    }
    return normalized(std::move(assignment));
}

/// Heaviest task first onto the first least-loaded cluster (linear scan).
std::vector<int> load_balance_clustering(const TaskGraph& g, std::size_t k) {
    std::vector<std::size_t> order(g.task_count());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return g.weight(a) > g.weight(b);
    });
    std::vector<double> load(k, 0.0);
    std::vector<int> assignment(g.task_count(), 0);
    for (std::size_t t : order) {
        std::size_t lightest =
            std::min_element(load.begin(), load.end()) - load.begin();
        assignment[t] = static_cast<int>(lightest);
        load[lightest] += g.weight(t);
    }
    return normalized(std::move(assignment));
}

}  // namespace reference

std::vector<int> assignment_of(const Clustering& c) {
    std::vector<int> out(c.task_count());
    for (TaskIndex t = 0; t < c.task_count(); ++t) out[t] = c.cluster_of(t);
    return out;
}

struct GraphShape {
    std::size_t tasks;
    std::size_t layers;
    double edge_probability;
    bool uniform;  ///< unit weights and costs: many equal-length paths
};

TaskGraph shaped_graph(const GraphShape& shape, std::uint64_t seed) {
    RandomDagOptions options;
    options.tasks = shape.tasks;
    options.layers = shape.layers;
    options.edge_probability = shape.edge_probability;
    options.seed = seed;
    if (shape.uniform) {
        options.min_weight = options.max_weight = 1.0;
        options.min_cost = options.max_cost = 1.0;
    }
    return random_layered_dag(options);
}

const GraphShape kSparse{200, 40, 0.05, false};
const GraphShape kSparseUniform{160, 8, 0.03, true};
const GraphShape kDense{60, 6, 0.6, false};
const GraphShape kDenseUniform{90, 5, 0.5, true};

TEST(ReferenceOracle, TopologicalOrderMatchesLinearScanKahn) {
    // Wide layers with few edges: many tasks are ready at once, so the
    // smallest-index rule decides most of the order.
    for (const GraphShape& shape : {kSparse, kSparseUniform, kDense,
                                    GraphShape{300, 3, 0.01, true}}) {
        for (std::uint64_t seed : {1u, 7u, 42u}) {
            TaskGraph g = shaped_graph(shape, seed);
            EXPECT_EQ(g.topological_order(), reference::topological_order(g))
                << "tasks=" << shape.tasks << " seed=" << seed;
        }
    }

    // The shared routine on raw successor lists: relabelled DAGs, then the
    // same graphs with back edges. Repeated successors stand for the
    // simulator's one edge per connected input port.
    for (std::size_t n : {1u, 7u, 60u, 240u}) {
        for (unsigned seed : {1u, 2u, 3u}) {
            std::mt19937 rng(seed);
            std::vector<std::size_t> label(n);
            std::iota(label.begin(), label.end(), std::size_t{0});
            std::shuffle(label.begin(), label.end(), rng);
            std::vector<std::vector<std::size_t>> successors(n);
            for (std::size_t i = 0; i + 1 < n; ++i)
                for (int k = 0; k < 3; ++k) {
                    std::size_t j = i + 1 + rng() % (n - i - 1);
                    successors[label[i]].push_back(label[j]);
                    if (rng() % 4 == 0) successors[label[i]].push_back(label[j]);
                }
            for (bool cyclic : {false, true}) {
                if (cyclic)
                    for (int k = 0; k < 2; ++k) {
                        std::size_t i = rng() % n;
                        std::size_t j = rng() % (i + 1);
                        successors[label[i]].push_back(label[j]);
                    }
                const TopoSort sorted = topological_sort(successors);
                const reference::KahnResult expected = reference::kahn(successors);
                EXPECT_EQ(sorted.order, expected.order)
                    << "n=" << n << " seed=" << seed << " cyclic=" << cyclic;
                EXPECT_EQ(sorted.stuck, expected.stuck)
                    << "n=" << n << " seed=" << seed << " cyclic=" << cyclic;
                if (!cyclic) EXPECT_TRUE(sorted.stuck.empty());
                EXPECT_EQ(sorted.order.size() + sorted.stuck.size(), n);
            }
        }
    }
}

TEST(ReferenceOracle, LinearClusteringMatchesRestartPerPathForEveryBudget) {
    for (const GraphShape& shape : {kSparse, kSparseUniform, kDense, kDenseUniform}) {
        for (std::uint64_t seed : {3u, 9u}) {
            TaskGraph g = shaped_graph(shape, seed);
            const CriticalPaths paths = extract_critical_paths(g);
            for (std::size_t k = 0; k <= g.task_count(); ++k) {
                std::vector<int> expected = reference::linear_clustering(g, k);
                ASSERT_EQ(assignment_of(linear_clustering(g, {k})), expected)
                    << "tasks=" << shape.tasks << " seed=" << seed << " k=" << k;
                ASSERT_EQ(assignment_of(fold_critical_paths(g, paths, {k})),
                          expected)
                    << "tasks=" << shape.tasks << " seed=" << seed << " k=" << k;
            }
        }
    }
}

TEST(ReferenceOracle, LoadBalanceMatchesLinearScanForEveryK) {
    for (const GraphShape& shape : {kSparse, kDenseUniform}) {
        TaskGraph g = shaped_graph(shape, 5);
        for (std::size_t k = 1; k <= g.task_count(); ++k)
            ASSERT_EQ(assignment_of(load_balance_clustering(g, k)),
                      reference::load_balance_clustering(g, k))
                << "tasks=" << shape.tasks << " k=" << k;
    }
}

TEST(LinearClustering, ExtractedPathsPartitionTheTasks) {
    TaskGraph g = shaped_graph(kDense, 11);
    CriticalPaths paths = extract_critical_paths(g);
    std::vector<int> seen(g.task_count(), 0);
    for (const auto& path : paths) {
        ASSERT_FALSE(path.empty());
        for (std::size_t i = 0; i < path.size(); ++i) {
            ++seen[path[i]];
            if (i > 0) {
                EXPECT_GT(g.edge_cost(path[i - 1], path[i]), 0.0);
            }
        }
    }
    EXPECT_EQ(seen, std::vector<int>(g.task_count(), 1));
    // The first path is a critical path of the whole graph.
    double length = 0.0;
    for (std::size_t i = 0; i < paths.front().size(); ++i) {
        length += g.weight(paths.front()[i]);
        if (i > 0) length += g.edge_cost(paths.front()[i - 1], paths.front()[i]);
    }
    EXPECT_NEAR(length, g.critical_path_length(), 1e-9);
}

// --- DOT export ----------------------------------------------------------------------

TEST(Dot, PlainGraphEmitsNodesAndEdges) {
    TaskGraph g = paper_synthetic_graph();
    std::string dot = to_dot(g);
    EXPECT_NE(dot.find("digraph \"taskgraph\""), std::string::npos);
    EXPECT_NE(dot.find("\"A\" -> \"B\""), std::string::npos);
    EXPECT_NE(dot.find("[label=\"11\"]"), std::string::npos);  // B->C cost
    // One node statement per task plus one edge per dependency.
    std::size_t arrows = 0;
    for (std::size_t pos = dot.find("->"); pos != std::string::npos;
         pos = dot.find("->", pos + 2))
        ++arrows;
    EXPECT_EQ(arrows, g.edge_count());
}

TEST(Dot, ClusteredGraphDrawsSubgraphs) {
    TaskGraph g = paper_synthetic_graph();
    Clustering c = linear_clustering(g);
    std::string dot = to_dot(g, c);
    EXPECT_NE(dot.find("subgraph cluster_cpu0"), std::string::npos);
    EXPECT_NE(dot.find("subgraph cluster_cpu3"), std::string::npos);
    EXPECT_EQ(dot.find("subgraph cluster_cpu4"), std::string::npos);
    EXPECT_NE(dot.find("label=\"CPU0\""), std::string::npos);
}

TEST(Dot, WeightOptionShowsWeights) {
    TaskGraph g;
    g.add_task("only", 2.5);
    DotOptions options;
    options.show_weights = true;
    options.show_costs = false;
    std::string dot = to_dot(g, options);
    EXPECT_NE(dot.find("(w=2.5)"), std::string::npos);
}

}  // namespace
