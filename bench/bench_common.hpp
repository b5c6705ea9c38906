// bench_common.hpp — shared plumbing for the experiment harness.
//
// Every bench binary reproduces one figure/experiment of the paper: it
// first prints the qualitative result the paper reports (the "shape"),
// then runs google-benchmark timings of the machinery involved. Binaries
// run standalone with no arguments.
//
// Machine-readable pipeline: every banner/row also lands in a process-wide
// Report; `--uhcg_report=<path>` (stripped before google-benchmark sees
// argv) writes it as `uhcg-bench-v1` JSON next to google-benchmark's own
// `--benchmark_out` file. `uhcg_bench_report` aggregates those artifacts
// into one BENCH_*.json (see bench/CMakeLists.txt `bench_dse_report`).
#pragma once

#include <benchmark/benchmark.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "diag/diag.hpp"

namespace uhcg::bench {

/// Collects the reproduction table for the machine-readable report.
class Report {
public:
    static Report& instance() {
        static Report report;
        return report;
    }

    void begin(std::string experiment, std::string claim) {
        experiment_ = std::move(experiment);
        claim_ = std::move(claim);
    }

    void add(std::string label, std::string value) {
        rows_.push_back({std::move(label), std::move(value), 0.0, false});
    }

    void add(std::string label, double number) {
        rows_.push_back({std::move(label), {}, number, true});
    }

    bool write_json(const std::string& path) const {
        std::ofstream out(path);
        if (!out) return false;
        out << "{\n  \"schema\": \"uhcg-bench-v1\",\n  \"experiment\": \""
            << diag::json_escape(experiment_) << "\",\n  \"claim\": \""
            << diag::json_escape(claim_) << "\",\n  \"rows\": [";
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            const Row& r = rows_[i];
            out << (i ? ",\n    " : "\n    ") << "{\"label\": \""
                << diag::json_escape(r.label) << "\", ";
            if (r.numeric)
                out << "\"number\": " << r.number << '}';
            else
                out << "\"value\": \"" << diag::json_escape(r.text) << "\"}";
        }
        out << "\n  ]\n}\n";
        return out.good();
    }

private:
    struct Row {
        std::string label;
        std::string text;
        double number;
        bool numeric;
    };
    std::string experiment_;
    std::string claim_;
    std::vector<Row> rows_;
};

/// Prints a section header for the reproduction table.
inline void banner(const std::string& experiment, const std::string& claim) {
    std::printf("\n=== %s ===\n--- paper: %s\n", experiment.c_str(),
                claim.c_str());
    Report::instance().begin(experiment, claim);
}

inline void row(const std::string& label, const std::string& value) {
    std::printf("%-38s %s\n", label.c_str(), value.c_str());
    Report::instance().add(label, value);
}

inline void row(const std::string& label, double value) {
    std::printf("%-38s %g\n", label.c_str(), value);
    Report::instance().add(label, value);
}

inline void row(const std::string& label, std::size_t value) {
    std::printf("%-38s %zu\n", label.c_str(), value);
    Report::instance().add(label, static_cast<double>(value));
}

/// Calls each of `fns` `repeats` times, round-robin so drifting machine
/// load hits every one alike; each call returns one run's wall time in
/// ms. Returns each fn's median time, in argument order.
template <typename... Fns>
std::array<double, sizeof...(Fns)> median_ms(std::size_t repeats, Fns&&... fns) {
    std::array<std::vector<double>, sizeof...(Fns)> samples;
    for (std::size_t r = 0; r < repeats; ++r) {
        std::size_t i = 0;
        (samples[i++].push_back(fns()), ...);
    }
    std::array<double, sizeof...(Fns)> medians{};
    for (std::size_t i = 0; i < medians.size(); ++i) {
        std::vector<double>& s = samples[i];
        std::sort(s.begin(), s.end());
        const std::size_t n = s.size();
        medians[i] = n % 2 ? s[n / 2] : (s[n / 2 - 1] + s[n / 2]) / 2.0;
    }
    return medians;
}

/// Worker count for the parallel reproduction sections: `UHCG_JOBS` env
/// override (CI pins it for stable timings), else the hardware.
inline std::size_t jobs() {
    if (const char* env = std::getenv("UHCG_JOBS")) {
        char* end = nullptr;
        unsigned long parsed = std::strtoul(env, &end, 10);
        if (end != env && *end == '\0' && parsed > 0)
            return static_cast<std::size_t>(parsed);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 1;
}

/// Pulls `--uhcg_report=<path>` out of argv (google-benchmark rejects
/// flags it does not know). Returns the path, or "" when absent.
inline std::string extract_report_path(int& argc, char** argv) {
    constexpr const char* kFlag = "--uhcg_report=";
    std::string path;
    int write = 1;
    for (int read = 1; read < argc; ++read) {
        if (std::strncmp(argv[read], kFlag, std::strlen(kFlag)) == 0)
            path = argv[read] + std::strlen(kFlag);
        else
            argv[write++] = argv[read];
    }
    argc = write;
    return path;
}

/// Standard main: print the reproduction table, run the timings, then
/// write the machine-readable report when requested.
#define UHCG_BENCH_MAIN(print_reproduction)                                  \
    int main(int argc, char** argv) {                                        \
        std::string report_path =                                            \
            ::uhcg::bench::extract_report_path(argc, argv);                  \
        print_reproduction();                                                \
        ::benchmark::Initialize(&argc, argv);                                \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;  \
        ::benchmark::RunSpecifiedBenchmarks();                               \
        ::benchmark::Shutdown();                                             \
        if (!report_path.empty() &&                                          \
            !::uhcg::bench::Report::instance().write_json(report_path)) {    \
            std::fprintf(stderr, "cannot write bench report: %s\n",          \
                         report_path.c_str());                               \
            return 1;                                                        \
        }                                                                    \
        return 0;                                                            \
    }

}  // namespace uhcg::bench
