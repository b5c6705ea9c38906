// bench_campaign — supervised sweep throughput and the price of safety.
//
// Claim: the campaign runner turns N models × strategies × cost models into
// one crash-tolerant sweep whose robustness machinery (per-job
// transactions, hash-guarded journal appends, quarantine isolation) costs
// little next to the jobs themselves, and whose resume path replays a
// completed sweep from the journal without re-running a single job. The
// reproduction rows pin the sweep's job throughput as an absolute budget
// ("campaign jobs (/ms)") plus the determinism counters — job counts,
// quarantines, replay counts — that must never drift on a healthy build.
#include <chrono>
#include <filesystem>
#include <string>

#include "bench_common.hpp"
#include "campaign/campaign.hpp"
#include "campaign/corpus.hpp"
#include "campaign/manifest.hpp"
#include "diag/diag.hpp"

namespace {

using namespace uhcg;
namespace fs = std::filesystem;

fs::path bench_root() {
    return fs::temp_directory_path() / "uhcg_bench_campaign";
}

/// Six models, one cyclic: the sweep crosses the quarantine path too.
fs::path build_corpus() {
    fs::path dir = bench_root() / "corpus";
    fs::remove_all(dir);
    fs::create_directories(dir);
    campaign::CorpusOptions options;
    options.models = 6;
    options.seed = 17;
    options.min_threads = 3;
    options.max_threads = 5;
    options.feedback_cycles = 1;
    campaign::write_corpus(options, dir);
    return dir;
}

campaign::Manifest sweep_manifest(const fs::path& corpus) {
    campaign::Manifest manifest;
    manifest.models = {corpus.string()};
    manifest.strategies = {"generate", "explore"};
    // Two cost models: the default and a slower GFIFO.
    manifest.cost_models.push_back({});
    campaign::CostModel slow;
    slow.name = "slow-gfifo";
    slow.params.gfifo_cost_per_byte = 40.0;
    manifest.cost_models.push_back(slow);
    manifest.max_processors = 3;
    manifest.random_samples = 2;
    return manifest;
}

campaign::CampaignResult run_once(const campaign::Manifest& manifest,
                                  const fs::path& out_dir, bool resume) {
    campaign::CampaignOptions options;
    options.out_dir = out_dir;
    options.resume = resume;
    options.jobs = bench::jobs();
    diag::DiagnosticEngine engine;
    return campaign::run_campaign(manifest, options, engine);
}

void print_reproduction() {
    bench::banner(
        "uhcg campaign — sharded sweep throughput and resume replay",
        "per-job transactions + journal appends cost little next to the "
        "jobs; resume replays a finished sweep without re-running any");

    fs::path corpus = build_corpus();
    campaign::Manifest manifest = sweep_manifest(corpus);
    fs::path out_dir = bench_root() / "out";
    fs::remove_all(out_dir);

    auto start = std::chrono::steady_clock::now();
    campaign::CampaignResult cold = run_once(manifest, out_dir, false);
    auto mid = std::chrono::steady_clock::now();
    campaign::CampaignResult resumed = run_once(manifest, out_dir, true);
    auto stop = std::chrono::steady_clock::now();

    double cold_ms =
        std::chrono::duration<double, std::milli>(mid - start).count();
    double resume_ms =
        std::chrono::duration<double, std::milli>(stop - mid).count();

    bench::row("cold sweep (ms)", cold_ms);
    bench::row("resume replay (ms)", resume_ms);
    bench::row("campaign jobs (/ms)",
               cold_ms > 0 ? cold.jobs_total / cold_ms : 0.0);
    // Determinism counters: exact-match rows in the perf gate.
    bench::row("jobs expanded", cold.jobs_total);
    bench::row("jobs ok", cold.jobs_ok);
    bench::row("jobs quarantined", cold.jobs_quarantined);
    bench::row("resume replayed jobs", resumed.jobs_resumed);
    bench::row("resume re-ran jobs",
               resumed.jobs_total - resumed.jobs_resumed);
}

void BM_CampaignSweep(benchmark::State& state) {
    fs::path corpus = build_corpus();
    campaign::Manifest manifest = sweep_manifest(corpus);
    fs::path out_dir = bench_root() / "bm_sweep";
    for (auto _ : state) {
        fs::remove_all(out_dir);
        campaign::CampaignResult result = run_once(manifest, out_dir, false);
        benchmark::DoNotOptimize(result.jobs_ok);
    }
}
BENCHMARK(BM_CampaignSweep)->Unit(benchmark::kMillisecond);

void BM_CampaignResume(benchmark::State& state) {
    fs::path corpus = build_corpus();
    campaign::Manifest manifest = sweep_manifest(corpus);
    fs::path out_dir = bench_root() / "bm_resume";
    fs::remove_all(out_dir);
    (void)run_once(manifest, out_dir, false);
    for (auto _ : state) {
        campaign::CampaignResult result = run_once(manifest, out_dir, true);
        benchmark::DoNotOptimize(result.jobs_resumed);
    }
}
BENCHMARK(BM_CampaignResume)->Unit(benchmark::kMillisecond);

}  // namespace

UHCG_BENCH_MAIN(print_reproduction)
