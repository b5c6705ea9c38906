// bench_ablation_channels — design-choice ablations around §4.2.1/§4.2.2:
//
//  * protocol asymmetry: how the SWFIFO/GFIFO cost ratio shapes the value
//    of traffic-aware allocation (the premise "the cost for intra-CPU
//    communication is lower than the cost for communication between
//    different CPUs");
//  * delay placement: per-cycle back-edge insertion (our §4.2.2 policy)
//    versus the naive alternative of delaying *every* channel, measured in
//    inserted delays and the control error they add to the crane loop.
#include "bench_common.hpp"
#include "cases/cases.hpp"
#include "core/delays.hpp"
#include "core/parallel.hpp"
#include "core/pipeline.hpp"
#include "sim/engine.hpp"
#include "sim/mpsoc.hpp"
#include "simulink/caam.hpp"
#include "taskgraph/baselines.hpp"
#include "taskgraph/generate.hpp"
#include "taskgraph/linear.hpp"

namespace {

using namespace uhcg;

void protocol_asymmetry() {
    std::printf("\nProtocol cost asymmetry (paper synthetic graph):\n");
    std::printf("%-24s %12s %12s %10s\n", "GFIFO/SWFIFO ratio", "LC makespan",
                "RR makespan", "LC gain");
    taskgraph::TaskGraph g = taskgraph::paper_synthetic_graph();
    taskgraph::Clustering lc = taskgraph::linear_clustering(g);
    taskgraph::Clustering rr = taskgraph::round_robin_clustering(
        g, static_cast<std::size_t>(lc.cluster_count()));
    // Ratio points are independent simulations: fan them out, print in order.
    const std::vector<double> ratios{1.0, 4.0, 10.0, 40.0};
    std::vector<std::pair<double, double>> makespans(ratios.size());
    core::parallel_for(ratios.size(), bench::jobs(), [&](std::size_t i) {
        sim::MpsocParams params;
        params.swfifo_cost_per_byte = 1.0;
        params.gfifo_cost_per_byte = ratios[i];
        makespans[i] = {sim::simulate_mpsoc(g, lc, params).makespan,
                        sim::simulate_mpsoc(g, rr, params).makespan};
    });
    for (std::size_t i = 0; i < ratios.size(); ++i) {
        auto [m_lc, m_rr] = makespans[i];
        std::printf("%-24g %12g %12g %9.2fx\n", ratios[i], m_lc, m_rr,
                    m_rr / m_lc);
    }
}

/// Naive alternative to §4.2.2: delay *every* channel block output.
std::size_t delay_every_channel(simulink::Model& caam) {
    std::size_t inserted = 0;
    std::function<void(simulink::System&)> walk = [&](simulink::System& sys) {
        for (simulink::Block* b : sys.blocks())
            if (b->system()) walk(*b->system());
        // A copy: the loop below adds blocks to the system it views.
        auto view = sys.blocks_of(simulink::BlockType::CommChannel);
        const std::vector<simulink::Block*> channels(view.begin(), view.end());
        for (simulink::Block* chan : channels) {
            simulink::Line* line = sys.line_from({chan, 1});
            if (!line) continue;
            auto dsts = line->destinations();
            sys.remove_line(*line);
            simulink::Block& z = sys.add_block("zc_" + chan->name(),
                                               simulink::BlockType::UnitDelay);
            sys.add_line({chan, 1}, {&z, 1});
            for (const simulink::PortRef& d : dsts) sys.add_line({&z, 1}, d);
            ++inserted;
        }
    };
    walk(caam.root());
    return inserted;
}

void delay_placement() {
    std::printf("\nDelay placement policy (crane loop):\n");
    uml::Model crane = cases::crane_model();
    sim::SFunctionRegistry registry;
    cases::register_crane_sfunctions(registry);

    // Policy A (§4.2.2): break detected cycles only.
    core::MapperReport report;
    simulink::Model per_cycle = core::map_to_caam(crane, {}, &report);
    sim::Simulator sim_a(per_cycle, registry);
    auto res_a = sim_a.run(600);

    // Policy B (naive): delay every channel.
    core::MapperOptions no_delays;
    no_delays.insert_delays = false;
    simulink::Model every = core::map_to_caam(crane, no_delays);
    std::size_t inserted_b = delay_every_channel(every);
    sim::SFunctionRegistry registry_b;
    cases::register_crane_sfunctions(registry_b);
    sim::Simulator sim_b(every, registry_b);
    auto res_b = sim_b.run(600);

    auto iae = [](const std::vector<double>& pos) {
        double sum = 0.0;
        for (double p : pos) sum += std::abs(1.0 - p);
        return sum;
    };
    std::printf("%-28s %8s %18s %14s\n", "policy", "delays", "|err| integral",
                "final pos");
    std::printf("%-28s %8zu %18.1f %14.4f\n", "per-cycle (the tool)",
                report.delays.inserted, iae(res_a.outputs.at("pos_f")),
                res_a.outputs.at("pos_f").back());
    std::printf("%-28s %8zu %18.1f %14.4f\n", "every channel (naive)",
                inserted_b, iae(res_b.outputs.at("pos_f")),
                res_b.outputs.at("pos_f").back());
    std::printf("(Per-cycle insertion adds the minimum latency the loop needs; "
                "delaying every channel\n multiplies loop latency and degrades "
                "control quality.)\n");
}

void print_reproduction() {
    bench::banner("Ablation — channel protocols and barrier placement",
                  "intra/inter cost asymmetry motivates §4.2.3; minimal "
                  "barrier insertion motivates §4.2.2");
    protocol_asymmetry();
    delay_placement();
}

void BM_CycleDetection(benchmark::State& state) {
    core::MapperOptions no_delays;
    no_delays.insert_delays = false;
    simulink::Model caam = core::map_to_caam(cases::crane_model(), no_delays);
    for (auto _ : state) {
        benchmark::DoNotOptimize(core::has_combinational_cycle(caam));
    }
}
BENCHMARK(BM_CycleDetection);

void BM_DelayInsertionLargeModel(benchmark::State& state) {
    uml::Model app =
        cases::random_application(11, static_cast<std::size_t>(state.range(0)), 4);
    core::MapperOptions options;
    options.auto_allocate = true;
    options.insert_delays = false;
    for (auto _ : state) {
        state.PauseTiming();
        simulink::Model caam = core::map_to_caam(app, options);
        state.ResumeTiming();
        core::DelayReport r = core::insert_temporal_barriers(caam);
        benchmark::DoNotOptimize(r.inserted);
    }
}
BENCHMARK(BM_DelayInsertionLargeModel)->Arg(16)->Arg(64);

}  // namespace

UHCG_BENCH_MAIN(print_reproduction)
