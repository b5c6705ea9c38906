// strategy.hpp — heterogeneous generation strategies behind one interface.
//
// Fig. 1's branches become registered strategies the dispatcher routes
// subsystem partitions to:
//
//   simulink-caam   dataflow branch: steps 2–4, UML → CAAM → .mdl
//   caam-c          dataflow branch: the same CAAM → per-CPU C program
//   caam-dot        dataflow branch: the same CAAM → Graphviz diagram
//   fsm-c           control branch: UML state machine → flat FSM → C
//   cpp-threads     fallback branch: UML → multithreaded C++ ("in case a
//                   Simulink compiler is not available")
//   kpn             §3 retargeting: UML → Kahn process network summary
//
// The three caam-family emitters share one SharedCaam mapping artifact —
// the paper's amortize-one-analysis-across-many-back-ends shape — which
// compute_shared_caam() builds once per dataflow subsystem; each emitter
// then runs only its model-to-text pass. Every strategy still runs its
// stages through a PassManager, so each lands in the shared FlowTrace
// with per-stage wall time, counters and diagnostics.
#pragma once

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "core/pipeline.hpp"
#include "flow/partition.hpp"
#include "flow/pass.hpp"
#include "simulink/model.hpp"

namespace uhcg::flow {

/// The per-subsystem CAAM mapping result (steps 2–3 plus the
/// schedulability probe and cost estimate), computed once and consumed
/// read-only by every caam-family emitter. Immutable after
/// compute_shared_caam() returns, so concurrent emitter units may share
/// one instance without synchronization. `ok == false` means the mapping
/// pipeline failed; the dispatcher quarantines every dependent emitter
/// with the prep's diagnostics instead of running them.
struct SharedCaam {
    bool ok = false;
    simulink::Model caam{""};
    core::MapperReport mapper_report;
};

/// What a strategy is asked to generate.
struct StrategyContext {
    const uml::Model* model = nullptr;
    const Subsystem* subsystem = nullptr;
    core::MapperOptions mapper;
    /// Loop bound for the fallback threads / KPN dry-run style generators.
    std::size_t iterations = 100;
    /// Resilience layer: applied to every internal pass manager.
    RetryPolicy retry;
    PassBudget pass_budget;
    /// KPN dry-run firing budget (kpn.validate); 0 derives the legacy
    /// formula iterations × processes × 4 + 1000.
    std::size_t kpn_firings = 0;
    /// Watchdogged smoke-simulation steps after the schedulability probe
    /// (sim.schedulability); 0 keeps the probe build-only.
    std::size_t sim_steps = 0;
    /// Shared mapping for the caam-family emitters, owned by the
    /// dispatcher. Null for non-caam strategies and for standalone
    /// strategy calls — a caam emitter then computes a private mapping.
    const SharedCaam* shared_caam = nullptr;
};

/// Runs the steps 2–3 mapping pipeline (plus schedulability probe and
/// cost estimate) once for `context.subsystem`, tracing under group
/// "simulink-caam:<subsystem>" and bumping the process-wide
/// `flow.caam_shared_computed` counter. Diagnostics land in `engine`;
/// on failure the result has `ok == false` and the engine holds why.
SharedCaam compute_shared_caam(const StrategyContext& context,
                               diag::DiagnosticEngine& engine,
                               FlowTrace* trace);

struct GeneratedFile {
    std::string name;
    std::string contents;
};

struct StrategyResult {
    std::string strategy;
    std::string subsystem;
    bool ok = true;
    /// Replayed from a checkpoint instead of regenerated (`--resume`).
    bool cached = false;
    std::vector<GeneratedFile> files;
    /// Legacy mapping report; populated by the simulink-caam strategy only.
    core::MapperReport mapper_report;
};

class Strategy {
public:
    virtual ~Strategy() = default;
    virtual std::string_view name() const = 0;
    /// True when this strategy can consume `subsystem`.
    virtual bool handles(const Subsystem& subsystem) const = 0;
    /// Generates artifacts for one subsystem, reporting through `engine`
    /// and tracing each internal pass (group = "<name>:<subsystem>").
    virtual StrategyResult generate(const StrategyContext& context,
                                    diag::DiagnosticEngine& engine,
                                    FlowTrace* trace) = 0;
};

/// Name-keyed strategy registry; lookup order is registration order.
class StrategyRegistry {
public:
    StrategyRegistry& add(std::unique_ptr<Strategy> strategy);
    Strategy* find(std::string_view name);
    const std::vector<std::unique_ptr<Strategy>>& strategies() const {
        return strategies_;
    }
    /// The built-in branches of Fig. 1, registration order:
    /// simulink-caam, caam-c, caam-dot, fsm-c, cpp-threads, kpn.
    static StrategyRegistry with_builtins();

private:
    std::vector<std::unique_ptr<Strategy>> strategies_;
};

}  // namespace uhcg::flow
