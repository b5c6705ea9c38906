#include "sim/batch.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace uhcg::sim {

using taskgraph::Clustering;
using taskgraph::Edge;
using taskgraph::TaskGraph;
using taskgraph::TaskIndex;

MpsocPrep::MpsocPrep(const TaskGraph& graph, const MpsocParams& params)
    : graph_(&graph), params_(params), topo_(graph.topological_order()) {
    const std::size_t n = graph.task_count();
    work_.resize(n);
    for (TaskIndex t = 0; t < n; ++t)
        work_[t] = graph.weight(t) * params.cycles_per_work;
    const std::size_t m = graph.edge_count();
    sw_delay_.resize(m);
    bus_duration_.resize(m);
    for (std::size_t e = 0; e < m; ++e) {
        const Edge& edge = graph.edge(e);
        sw_delay_[e] = edge.cost * params.swfifo_cost_per_byte;
        bus_duration_[e] = params.bus_setup + edge.cost * params.gfifo_cost_per_byte;
    }
}

MpsocBatch::MpsocBatch(const MpsocPrep& prep) : prep_(prep) {}

MpsocResult MpsocBatch::evaluate(const Clustering& clustering) {
    static obs::Counter& runs = obs::counter("sim.mpsoc_runs");
    runs.add(1);
    const TaskGraph& graph = *prep_.graph_;
    const std::size_t n = graph.task_count();
    if (n != clustering.task_count())
        throw std::invalid_argument("clustering does not match graph size");

    // 1. Canonical dense labels, first-appearance order by task index.
    //    (Clustering normalizes its ids today; relabeling here keeps the
    //    evaluator independent of that invariant.)
    canon_.assign(n, -1);
    int max_raw = -1;
    for (TaskIndex t = 0; t < n; ++t)
        max_raw = std::max(max_raw, clustering.cluster_of(t));
    dense_.assign(static_cast<std::size_t>(max_raw + 1), -1);
    int k = 0;
    for (TaskIndex t = 0; t < n; ++t) {
        int& label = dense_[static_cast<std::size_t>(clustering.cluster_of(t))];
        if (label < 0) label = k++;
        canon_[t] = label;
    }

    // 2. Member lists per canonical cluster (ascending task index).
    members_.resize(static_cast<std::size_t>(k));
    for (auto& m : members_) m.clear();
    for (TaskIndex t = 0; t < n; ++t)
        members_[static_cast<std::size_t>(canon_[t])].push_back(t);

    // 3. Per-cluster aggregates, each summed member-ascending and then
    //    added to the result in canonical cluster order — one deterministic
    //    order for every evaluation, and no subtractions: a clustering with
    //    no cut edges reports inter_traffic exactly 0.0.
    MpsocResult result;
    result.cpu_busy.assign(static_cast<std::size_t>(k), 0.0);
    for (int ci = 0; ci < k; ++ci) {
        double work = 0.0, internal_cost = 0.0, cut_cost = 0.0, cut_bus = 0.0;
        std::size_t cut_edges = 0;
        for (TaskIndex t : members_[static_cast<std::size_t>(ci)]) {
            work += prep_.work_[t];
            for (std::size_t e : graph.out_edges(t)) {
                const Edge& edge = graph.edge(e);
                if (canon_[edge.to] == ci) {
                    internal_cost += edge.cost;
                } else {
                    cut_cost += edge.cost;
                    cut_bus += prep_.bus_duration_[e];
                    ++cut_edges;
                }
            }
        }
        result.cpu_busy[static_cast<std::size_t>(ci)] = work;
        result.intra_traffic += internal_cost;
        result.inter_traffic += cut_cost;
        result.bus_busy += cut_bus;
        result.bus_transfers += cut_edges;
    }

    // 4. Timed scan in topological order: a task starts once its CPU is
    //    free and every input has arrived; a cut edge occupies the shared
    //    bus (when modeled) after its producer finishes.
    finish_.resize(n);
    edge_arrival_.resize(graph.edge_count());
    cpu_free_.assign(static_cast<std::size_t>(k), 0.0);
    double bus_free = 0.0;
    for (TaskIndex t : prep_.topo_) {
        int c = canon_[t];
        double ready = cpu_free_[static_cast<std::size_t>(c)];
        for (std::size_t e : graph.in_edges(t))
            ready = std::max(ready, edge_arrival_[e]);
        finish_[t] = ready + prep_.work_[t];
        cpu_free_[static_cast<std::size_t>(c)] = finish_[t];
        for (std::size_t e : graph.out_edges(t)) {
            const Edge& edge = graph.edge(e);
            if (canon_[edge.to] == c) {
                edge_arrival_[e] = finish_[t] + prep_.sw_delay_[e];
            } else {
                double duration = prep_.bus_duration_[e];
                double transfer_start = finish_[t];
                if (prep_.params_.shared_bus) {
                    transfer_start = std::max(transfer_start, bus_free);
                    bus_free = transfer_start + duration;
                }
                edge_arrival_[e] = transfer_start + duration;
            }
        }
    }
    for (TaskIndex t = 0; t < n; ++t)
        result.makespan = std::max(result.makespan, finish_[t]);
    return result;
}

}  // namespace uhcg::sim
