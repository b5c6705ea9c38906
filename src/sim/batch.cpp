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
    pos_.resize(n);
    for (std::size_t q = 0; q < n; ++q) pos_[topo_[q]] = q;
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

std::size_t MpsocBatch::resume_position() const {
    if (!has_prev_ || canon_prev_.size() != canon_cur_.size()) return 0;
    const TaskGraph& graph = *prep_.graph_;
    const std::size_t n = canon_cur_.size();
    std::size_t start = n;
    for (TaskIndex t = 0; t < n; ++t) {
        if (canon_prev_[t] == canon_cur_[t]) continue;
        // A changed task invalidates its own position *and* every producer
        // position feeding it: an in-edge is priced when the producer runs,
        // and that price reads the consumer's cluster.
        start = std::min(start, prep_.pos_[t]);
        for (std::size_t e : graph.in_edges(t))
            start = std::min(start, prep_.pos_[graph.edge(e).from]);
    }
    return start;
}

MpsocResult MpsocBatch::evaluate(const Clustering& clustering) {
    static obs::Counter& runs = obs::counter("sim.mpsoc_runs");
    runs.add(1);
    const TaskGraph& graph = *prep_.graph_;
    const std::size_t n = graph.task_count();
    if (n != clustering.task_count())
        throw std::invalid_argument("clustering does not match graph size");
    ++stats_.evaluated;

    // 1. Canonical dense labels, first-appearance order by task index.
    //    (Clustering::merge can leave sparse raw ids, so never assume the
    //    raw assignment is dense.)
    canon_cur_.assign(n, -1);
    int max_raw = -1;
    for (TaskIndex t = 0; t < n; ++t)
        max_raw = std::max(max_raw, clustering.cluster_of(t));
    dense_.assign(static_cast<std::size_t>(max_raw + 1), -1);
    int k = 0;
    for (TaskIndex t = 0; t < n; ++t) {
        int& label = dense_[static_cast<std::size_t>(clustering.cluster_of(t))];
        if (label < 0) label = k++;
        canon_cur_[t] = label;
    }

    // 2. Member lists per canonical cluster (ascending task index).
    members_.resize(static_cast<std::size_t>(k));
    for (auto& m : members_) m.clear();
    for (TaskIndex t = 0; t < n; ++t)
        members_[static_cast<std::size_t>(canon_cur_[t])].push_back(t);

    // 3. Per-cluster aggregates, each summed member-ascending and then
    //    added to the result in canonical cluster order — one deterministic
    //    order shared by fresh and incremental evaluation, and no
    //    subtractions: a clustering with no cut edges reports inter_traffic
    //    exactly 0.0.
    MpsocResult result;
    result.cpu_busy.assign(static_cast<std::size_t>(k), 0.0);
    for (int ci = 0; ci < k; ++ci) {
        double work = 0.0, internal_cost = 0.0, cut_cost = 0.0, cut_bus = 0.0;
        std::size_t cut_edges = 0;
        for (TaskIndex t : members_[static_cast<std::size_t>(ci)]) {
            work += prep_.work_[t];
            for (std::size_t e : graph.out_edges(t)) {
                const Edge& edge = graph.edge(e);
                if (canon_cur_[edge.to] == ci) {
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

    // 4. Timed scan with prefix resume. Every quantity at topological
    //    position q (finish, edge arrivals, bus_free) depends only on the
    //    labels of tasks involved in pricing at positions <= q, and
    //    resume_position() guarantees all of those are unchanged below it —
    //    so replaying the stored prefix is bitwise exact.
    const std::size_t start = resume_position();
    stats_.prefix_tasks_reused += start;
    finish_.resize(n);
    edge_arrival_.resize(graph.edge_count());
    bus_free_at_.resize(n);
    cpu_free_.assign(static_cast<std::size_t>(k), 0.0);
    for (std::size_t q = 0; q < start; ++q) {
        TaskIndex t = prep_.topo_[q];
        cpu_free_[static_cast<std::size_t>(canon_cur_[t])] = finish_[t];
    }
    double bus_free = start > 0 ? bus_free_at_[start - 1] : 0.0;
    for (std::size_t q = start; q < n; ++q) {
        TaskIndex t = prep_.topo_[q];
        int c = canon_cur_[t];
        double ready = cpu_free_[static_cast<std::size_t>(c)];
        for (std::size_t e : graph.in_edges(t))
            ready = std::max(ready, edge_arrival_[e]);
        finish_[t] = ready + prep_.work_[t];
        cpu_free_[static_cast<std::size_t>(c)] = finish_[t];
        for (std::size_t e : graph.out_edges(t)) {
            const Edge& edge = graph.edge(e);
            if (canon_cur_[edge.to] == c) {
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
        bus_free_at_[q] = bus_free;
    }
    for (TaskIndex t = 0; t < n; ++t)
        result.makespan = std::max(result.makespan, finish_[t]);

    canon_prev_.swap(canon_cur_);
    has_prev_ = true;
    return result;
}

}  // namespace uhcg::sim
