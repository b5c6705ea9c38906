// bench_generate — the parallel shared-artifact generate dispatcher.
//
// The PR 5 profile showed `flow.strategy:simulink-caam` dominating `uhcg
// generate` wall time with `txout.commit` a close second. This bench
// measures both fixes end to end: (strategy × subsystem) units dispatched
// across the core::parallel pool (--gen-jobs) with the CAAM mapping
// computed once per subsystem and shared read-only across the mdl/C/dot
// emitters, and batched transaction commits (one sorted rename pass, one
// directory fsync) against the legacy per-file pattern. Byte-identity of
// the parallel run is asserted as a gate-enforced text row — a
// determinism regression fails the perf gate, not just the chaos suite.
#include <chrono>
#include <filesystem>
#include <thread>

#include "bench_common.hpp"
#include "cases/cases.hpp"
#include "flow/generate.hpp"
#include "flow/txout.hpp"
#include "uml/model.hpp"

namespace {

using namespace uhcg;
namespace fs = std::filesystem;

/// Heterogeneous workload with enough comparable units to occupy a pool:
/// one dataflow subsystem (mapping + three caam emitters + threads + kpn)
/// plus `machines` control subsystems whose flatten/emit passes are real
/// work (`states` states each, ring transitions with actions and guards).
uml::Model bench_model(std::size_t machines, std::size_t states) {
    uml::Model model = cases::random_application(11, 24, 4);
    model.set_name("genbench");
    for (std::size_t m = 0; m < machines; ++m) {
        uml::StateMachine& sm =
            model.add_state_machine("Ctl" + std::to_string(m));
        std::vector<uml::State*> ring;
        ring.reserve(states);
        for (std::size_t s = 0; s < states; ++s) {
            uml::State& st = sm.add_state("S" + std::to_string(s));
            st.set_entry_action("enter_" + std::to_string(s) + "();");
            st.set_exit_action("leave_" + std::to_string(s) + "();");
            ring.push_back(&st);
        }
        sm.set_initial_state(*ring.front());
        for (std::size_t s = 0; s < states; ++s) {
            uml::Transition& t =
                sm.add_transition(*ring[s], *ring[(s + 1) % states]);
            t.set_trigger("tick_" + std::to_string(s));
            t.set_guard("ready_" + std::to_string(s));
            t.set_effect("step_" + std::to_string(s) + "();");
        }
    }
    return model;
}

flow::GenerateOptions options_with_jobs(std::size_t jobs) {
    flow::GenerateOptions options;
    options.with_kpn = true;
    options.gen_jobs = jobs;
    return options;
}

double generate_millis(const uml::Model& model,
                       const flow::GenerateOptions& options,
                       flow::GenerateResult* out = nullptr) {
    diag::DiagnosticEngine engine;
    auto start = std::chrono::steady_clock::now();
    flow::GenerateResult r = flow::generate(model, options, engine);
    auto stop = std::chrono::steady_clock::now();
    if (out) *out = std::move(r);
    return std::chrono::duration<double, std::milli>(stop - start).count();
}

// CI red-gate rehearsal: `UHCG_BENCH_INJECT_MS` inflates the serial
// generate row by that many milliseconds, simulating a localized
// regression the perf gate must flag. Only one row is touched, so the
// gate's median-ratio calibration cannot absorb the spike as machine
// speed (a uniform slowdown would — see src/obs/gate.hpp).
double injected_ms() {
    const char* env = std::getenv("UHCG_BENCH_INJECT_MS");
    if (!env) return 0.0;
    char* end = nullptr;
    double parsed = std::strtod(env, &end);
    return (end != env && *end == '\0' && parsed > 0) ? parsed : 0.0;
}

bool results_identical(const flow::GenerateResult& a,
                       const flow::GenerateResult& b) {
    if (flow::to_manifest_json(a) != flow::to_manifest_json(b)) return false;
    if (a.results.size() != b.results.size()) return false;
    for (std::size_t i = 0; i < a.results.size(); ++i) {
        if (a.results[i].files.size() != b.results[i].files.size())
            return false;
        for (std::size_t f = 0; f < a.results[i].files.size(); ++f)
            if (a.results[i].files[f].name != b.results[i].files[f].name ||
                a.results[i].files[f].contents !=
                    b.results[i].files[f].contents)
                return false;
    }
    return true;
}

void dispatch_section() {
    uml::Model model = bench_model(6, 96);
    flow::GenerateOptions serial = options_with_jobs(1);
    flow::GenerateOptions parallel = options_with_jobs(bench::jobs());

    // Warm up allocators and the pool once before timing.
    (void)generate_millis(model, parallel);

    // Medians of interleaved runs: one timing of this op is too noisy for
    // the CI speedup gate.
    constexpr std::size_t kRepeats = 5;
    flow::GenerateResult serial_result;
    flow::GenerateResult parallel_result;
    const auto [serial_ms, parallel_ms] = bench::median_ms(
        kRepeats,
        [&] { return generate_millis(model, serial, &serial_result); },
        [&] { return generate_millis(model, parallel, &parallel_result); });

    const std::size_t hw =
        std::max<std::size_t>(1, std::thread::hardware_concurrency());
    bench::row("hardware threads", hw);
    bench::row("pool jobs (jobs=N rows)", parallel.gen_jobs);
    // Unit count depends only on the model and options — exact gate row.
    bench::row("generate units", serial_result.results.size());
    std::size_t files = 0, bytes = 0;
    for (const flow::StrategyResult& sr : serial_result.results)
        for (const flow::GeneratedFile& f : sr.files) {
            ++files;
            bytes += f.contents.size();
        }
    bench::row("generated files", files);
    bench::row("generate jobs=1 (ms)", serial_ms + injected_ms());
    bench::row("generate jobs=N (ms)", parallel_ms);
    // The gate skips ratio rows ("speedup" substring); CI's bench-smoke
    // asserts >= 1.5x on multi-core runners instead.
    if (parallel.gen_jobs >= 2 && hw >= 2)
        bench::row("generate speedup", serial_ms / parallel_ms);
    else
        bench::row("generate speedup", std::string("n/a (single-core host)"));
    bench::row("generate units (/ms)",
               static_cast<double>(serial_result.results.size()) /
                   (serial_ms + injected_ms()));
    bench::row("generated bytes (/ms)",
               static_cast<double>(bytes) / (serial_ms + injected_ms()));
    bench::row("parallel tree identical to serial",
               std::string(results_identical(serial_result, parallel_result)
                               ? "yes"
                               : "NO — determinism bug"));
}

/// Times `runs` full stage-then-commit cycles for one CommitMode.
double commit_millis(const flow::GenerateResult& result, flow::CommitMode mode,
                     std::size_t runs) {
    fs::path dir = fs::temp_directory_path() / "uhcg_bench_generate_commit";
    double total = 0.0;
    for (std::size_t r = 0; r < runs; ++r) {
        fs::remove_all(dir);
        flow::OutputTransaction tx(dir, mode);
        for (const flow::StrategyResult& sr : result.results)
            for (const flow::GeneratedFile& f : sr.files)
                tx.write(f.name, f.contents);
        auto start = std::chrono::steady_clock::now();
        tx.commit();
        auto stop = std::chrono::steady_clock::now();
        total +=
            std::chrono::duration<double, std::milli>(stop - start).count();
    }
    fs::remove_all(dir);
    return total;
}

void commit_section() {
    uml::Model model = bench_model(6, 96);
    flow::GenerateResult result;
    diag::DiagnosticEngine engine;
    result = flow::generate(model, options_with_jobs(1), engine);

    constexpr std::size_t kRuns = 8;
    (void)commit_millis(result, flow::CommitMode::Batched, 1);  // warm up
    double batched_ms =
        commit_millis(result, flow::CommitMode::Batched, kRuns);
    double per_file_ms =
        commit_millis(result, flow::CommitMode::PerFile, kRuns);
    bench::row("txout commit batched (ms)", batched_ms);
    bench::row("txout commit per-file (ms)", per_file_ms);
    bench::row("txout commit speedup (batched)", per_file_ms / batched_ms);
}

void print_reproduction() {
    bench::banner(
        "generate — parallel shared-artifact dispatch + batched commits",
        "one CAAM mapping per subsystem shared across mdl/C/dot emitters, "
        "units fanned out on the core::parallel pool, byte-identical to "
        "serial, commits batched under a single directory fsync");
    dispatch_section();
    commit_section();
}

void BM_GenerateSerial(benchmark::State& state) {
    uml::Model model = bench_model(3, 48);
    flow::GenerateOptions options = options_with_jobs(1);
    for (auto _ : state) {
        diag::DiagnosticEngine engine;
        flow::GenerateResult r = flow::generate(model, options, engine);
        benchmark::DoNotOptimize(r.status);
    }
}
BENCHMARK(BM_GenerateSerial);

void BM_GenerateParallel(benchmark::State& state) {
    uml::Model model = bench_model(3, 48);
    flow::GenerateOptions options = options_with_jobs(bench::jobs());
    for (auto _ : state) {
        diag::DiagnosticEngine engine;
        flow::GenerateResult r = flow::generate(model, options, engine);
        benchmark::DoNotOptimize(r.status);
    }
}
BENCHMARK(BM_GenerateParallel);

void BM_CommitBatched(benchmark::State& state) {
    uml::Model model = bench_model(2, 32);
    diag::DiagnosticEngine engine;
    flow::GenerateResult result =
        flow::generate(model, options_with_jobs(1), engine);
    for (auto _ : state) {
        double ms = commit_millis(result, flow::CommitMode::Batched, 1);
        benchmark::DoNotOptimize(ms);
    }
}
BENCHMARK(BM_CommitBatched);

void BM_CommitPerFile(benchmark::State& state) {
    uml::Model model = bench_model(2, 32);
    diag::DiagnosticEngine engine;
    flow::GenerateResult result =
        flow::generate(model, options_with_jobs(1), engine);
    for (auto _ : state) {
        double ms = commit_millis(result, flow::CommitMode::PerFile, 1);
        benchmark::DoNotOptimize(ms);
    }
}
BENCHMARK(BM_CommitPerFile);

}  // namespace

UHCG_BENCH_MAIN(print_reproduction)
