#include "flow/generate.hpp"

#include <algorithm>
#include <sstream>

#include "core/allocation.hpp"
#include "core/parallel.hpp"
#include "flow/caam_passes.hpp"
#include "flow/checkpoint.hpp"
#include "obs/obs.hpp"

namespace uhcg::flow {

template <>
struct ArtifactTraits<PartitionReport> {
    static constexpr const char* name = "flow.partition-report";
};

namespace {

std::string join(const std::vector<std::string>& names) {
    std::string out;
    for (const std::string& n : names) out += (out.empty() ? "" : "+") + n;
    return out;
}

/// Options fingerprint for checkpoint keys: every knob that changes what a
/// strategy emits. Computed after the auto-allocation fallback so the key
/// reflects the options actually in force.
std::string options_fingerprint(const GenerateOptions& options) {
    std::ostringstream out;
    out << "auto=" << options.mapper.auto_allocate
        << "|maxp=" << options.mapper.max_processors
        << "|chan=" << options.mapper.infer_channels
        << "|delay=" << options.mapper.insert_delays
        << "|wf=" << options.mapper.enforce_wellformedness
        << "|iters=" << options.iterations
        << "|caamc=" << options.caam_c
        << "|caamdot=" << options.caam_dot
        << "|kpnf=" << options.resilience.kpn_firings
        << "|sims=" << options.resilience.sim_steps;
    return out.str();
}

/// Slice the Error+ diagnostics reported since `first` into a quarantine
/// record: the first message becomes the reason, codes dedupe in order.
QuarantineRecord quarantine_record(const std::string& strategy,
                                   const std::string& subsystem,
                                   const diag::DiagnosticEngine& engine,
                                   std::size_t first) {
    QuarantineRecord record;
    record.strategy = strategy;
    record.subsystem = subsystem;
    for (std::size_t i = first; i < engine.size(); ++i) {
        const diag::Diagnostic& d = engine.diagnostics()[i];
        if (d.severity < diag::Severity::Error) continue;
        if (record.reason.empty()) record.reason = d.message;
        if (std::find(record.error_codes.begin(), record.error_codes.end(),
                      d.code) == record.error_codes.end())
            record.error_codes.push_back(d.code);
    }
    if (record.reason.empty()) record.reason = "strategy failed";
    return record;
}

}  // namespace

std::string_view to_string(GenerateStatus status) {
    switch (status) {
        case GenerateStatus::Ok: return "ok";
        case GenerateStatus::Partial: return "partial";
        case GenerateStatus::Failed: return "failed";
    }
    return "failed";
}

GenerateResult generate(const uml::Model& model, const GenerateOptions& options_in,
                        diag::DiagnosticEngine& engine, FlowTrace* trace) {
    obs::ObsSpan generate_span("flow.generate");
    GenerateResult result;
    if (trace) trace->set_model(model.name());

    // One-shot surface: when the model ships no deployment diagram the
    // only viable allocation is the §4.2.3 automatic one — switch to it
    // instead of failing the CAAM branch.
    GenerateOptions options = options_in;
    if (!options.mapper.auto_allocate && model.deployment_or_null() == nullptr) {
        options.mapper.auto_allocate = true;
        engine.note(diag::codes::kFlowStrategy,
                    "model '" + model.name() +
                        "' has no deployment diagram; using automatic "
                        "allocation (§4.2.3)");
    }

    // Stage 1: the partitioner, run as a pass so it lands in the trace.
    ArtifactStore store;
    store.put(SourceModel{&model});
    PassManager pm("flow");
    pm.set_retry_policy(options.resilience.retry);
    pm.set_pass_budget(options.resilience.pass_budget);
    pm.add(Pass("flow.partition",
                [](PassContext& ctx) {
                    const uml::Model& m = *ctx.in<SourceModel>().model;
                    core::CommModel comm = core::analyze_communication(m);
                    PartitionReport& report = ctx.out(partition(m, comm));
                    // Mine the task graph here too: its shape lands in the
                    // trace for every run, including deployment-diagram
                    // models that never take the auto-allocation path.
                    taskgraph::TaskGraph graph = core::build_task_graph(m, comm);
                    ctx.count("taskgraph-tasks", graph.task_count());
                    ctx.count("taskgraph-edges", graph.edge_count());
                    ctx.count("subsystems", report.subsystems.size());
                    ctx.count("feedback-cycles", report.feedback_cycles);
                    for (const Subsystem& s : report.subsystems)
                        if (s.kind == SubsystemKind::ControlFlow)
                            ctx.count("control-flow");
                        else
                            ctx.count("dataflow");
                })
           .reads<SourceModel>()
           .writes<PartitionReport>());
    auto run = pm.run(store, engine, trace, "partition");
    if (!run.ok || !store.has<PartitionReport>()) {
        result.ok = false;
        result.status = GenerateStatus::Failed;
        return result;
    }
    result.partitions = std::move(store.require<PartitionReport>());

    // Checkpointing needs the model's serialized bytes for a content key.
    const ResilienceOptions& res = options.resilience;
    const bool checkpointing =
        !res.checkpoint_dir.empty() && !res.model_bytes.empty();
    std::unique_ptr<CheckpointStore> checkpoints;
    if (checkpointing)
        checkpoints = std::make_unique<CheckpointStore>(res.checkpoint_dir);
    const std::string options_fp = options_fingerprint(options);

    // Stage 2: dispatch each (strategy × subsystem) unit, optionally
    // across the core::parallel pool (--gen-jobs). The unit list is fixed
    // up front in canonical order (subsystem order × wanted order);
    // workers fill per-unit slots through private DiagnosticEngines and
    // FlowTraces, and a serial fold afterwards merges everything back in
    // canonical order — so the output tree, manifest and diagnostic
    // stream are byte-identical for every job count. Each dataflow
    // subsystem's CAAM mapping is computed once (compute_shared_caam) and
    // consumed read-only by all three caam-family emitters.
    constexpr std::size_t kNoPrep = static_cast<std::size_t>(-1);
    struct PrepState {
        const Subsystem* subsystem = nullptr;
        SharedCaam shared;
        diag::DiagnosticEngine engine;
        FlowTrace trace;
    };
    struct UnitState {
        const Subsystem* subsystem = nullptr;
        std::string name;
        Strategy* strategy = nullptr;
        std::string key;
        /// Index into `preps` for live caam-family units; kNoPrep else.
        std::size_t prep = static_cast<std::size_t>(-1);
        bool cached = false;
        StrategyResult sr;
        diag::DiagnosticEngine engine;
        FlowTrace trace;
    };

    StrategyRegistry registry = StrategyRegistry::with_builtins();
    std::vector<PrepState> preps;
    std::vector<UnitState> units;

    // Serial planning pass: wanted lists, checkpoint replay, shared-prep
    // assignment, trace partitions. Everything order-sensitive that is
    // cheap stays on the calling thread.
    for (const Subsystem& subsystem : result.partitions.subsystems) {
        std::vector<std::string> wanted;
        if (subsystem.machine) {
            wanted.push_back("fsm-c");
        } else {
            wanted.push_back("simulink-caam");
            if (options.caam_c) wanted.push_back("caam-c");
            if (options.caam_dot) wanted.push_back("caam-dot");
            if (options.fallback_cpp) wanted.push_back("cpp-threads");
            if (options.with_kpn) wanted.push_back("kpn");
        }

        std::vector<std::string> dispatched;
        std::size_t prep_index = kNoPrep;
        for (const std::string& name : wanted) {
            Strategy* strategy = registry.find(name);
            if (!strategy || !strategy->handles(subsystem)) {
                engine.note(diag::codes::kFlowStrategy,
                            "strategy '" + name + "' does not handle "
                            "subsystem '" + subsystem.name + "'");
                continue;
            }
            dispatched.push_back(name);

            UnitState unit;
            unit.subsystem = &subsystem;
            unit.name = name;
            unit.strategy = strategy;
            if (checkpointing)
                unit.key = CheckpointStore::key(res.model_bytes, options_fp,
                                                name, subsystem.name);
            if (checkpointing && res.resume) {
                StrategyResult cached;
                if (checkpoints->load(unit.key, cached)) {
                    cached.cached = true;
                    unit.cached = true;
                    unit.sr = std::move(cached);
                    unit.engine.note(diag::codes::kFlowCheckpoint,
                                     "strategy '" + name +
                                         "' for subsystem '" +
                                         subsystem.name +
                                         "' replayed from checkpoint");
                }
            }
            const bool caam_family = name == "simulink-caam" ||
                                     name == "caam-c" || name == "caam-dot";
            if (!unit.cached && caam_family) {
                if (prep_index == kNoPrep) {
                    prep_index = preps.size();
                    preps.emplace_back();
                    preps.back().subsystem = &subsystem;
                }
                unit.prep = prep_index;
            }
            units.push_back(std::move(unit));
        }

        if (trace) {
            TracePartition tp;
            tp.name = subsystem.name;
            tp.kind = std::string(to_string(subsystem.kind));
            tp.strategy = join(dispatched);
            if (subsystem.machine) {
                tp.units.push_back(subsystem.machine->name());
            } else {
                for (const uml::ObjectInstance* t : subsystem.threads)
                    tp.units.push_back(t->name());
            }
            trace->add_partition(std::move(tp));
        }
        if (dispatched.empty()) {
            engine.warning(diag::codes::kFlowStrategy,
                           "no registered strategy handles subsystem '" +
                               subsystem.name + "'");
            QuarantineRecord record;
            record.strategy = "none";
            record.subsystem = subsystem.name;
            record.reason = "no registered strategy handles this subsystem";
            record.error_codes.push_back(diag::codes::kFlowStrategy);
            result.quarantined.push_back(std::move(record));
        }
    }

    auto make_context = [&](const Subsystem& subsystem) {
        StrategyContext context;
        context.model = &model;
        context.subsystem = &subsystem;
        context.mapper = options.mapper;
        context.iterations = options.iterations;
        context.retry = res.retry;
        context.pass_budget = res.pass_budget;
        context.kpn_firings = res.kpn_firings;
        context.sim_steps = res.sim_steps;
        return context;
    };

    auto run_unit = [&](UnitState& unit) {
        StrategyContext context = make_context(*unit.subsystem);
        if (unit.prep != kNoPrep)
            context.shared_caam = &preps[unit.prep].shared;
        obs::ObsSpan unit_span("flow.strategy:" + unit.name, "flow");
        FlowTrace* unit_trace = trace ? &unit.trace : nullptr;
        try {
            unit.sr = unit.strategy->generate(context, unit.engine,
                                              unit_trace);
        } catch (const std::exception& e) {
            // Strategy code outside any pass body escaped; contain it to
            // this unit like any other failure.
            unit.engine.report(diag::Severity::Fatal,
                               diag::codes::kFlowQuarantine,
                               "strategy '" + unit.name +
                                   "' raised: " + e.what());
            unit.sr.strategy = unit.name;
            unit.sr.subsystem = unit.subsystem->name;
            unit.sr.ok = false;
            unit.sr.files.clear();
        }
    };

    // Wave 1: every shared CAAM prep plus every live non-caam unit.
    // Wave 2: the caam-family emitters, which read the preps built in
    // wave 1. The fault guard keeps worker exceptions inside their unit,
    // so parallel_for's own rethrow path stays cold.
    std::vector<std::size_t> emitters;
    std::vector<std::size_t> independents;
    for (std::size_t i = 0; i < units.size(); ++i) {
        if (units[i].cached) continue;
        (units[i].prep != kNoPrep ? emitters : independents).push_back(i);
    }
    const std::size_t jobs = options.gen_jobs;
    core::parallel_for(
        preps.size() + independents.size(), jobs, [&](std::size_t i) {
            if (i < preps.size()) {
                PrepState& prep = preps[i];
                StrategyContext context = make_context(*prep.subsystem);
                prep.shared = compute_shared_caam(
                    context, prep.engine, trace ? &prep.trace : nullptr);
            } else {
                run_unit(units[independents[i - preps.size()]]);
            }
        });
    core::parallel_for(emitters.size(), jobs,
                       [&](std::size_t i) { run_unit(units[emitters[i]]); });

    // Serial fold in canonical unit order: a subsystem's prep merges just
    // before its first live caam unit, then each unit's diagnostics,
    // trace entries, outputs, quarantine records and checkpoints.
    std::vector<bool> prep_merged(preps.size(), false);
    for (UnitState& unit : units) {
        if (unit.prep != kNoPrep && !prep_merged[unit.prep]) {
            prep_merged[unit.prep] = true;
            PrepState& prep = preps[unit.prep];
            engine.merge(prep.engine);
            if (trace)
                for (const PassTraceEntry& entry : prep.trace.entries())
                    trace->add(entry);
        }
        engine.merge(unit.engine);
        if (trace)
            for (const PassTraceEntry& entry : unit.trace.entries())
                trace->add(entry);

        StrategyResult sr = std::move(unit.sr);
        if (!unit.cached) {
            if (!sr.ok) {
                obs::counter("flow.quarantined").add(1);
                // A unit downed by its shared prep reported nothing of its
                // own — its quarantine record slices the prep's engine so
                // the reason and codes name the actual mapping failure.
                const bool prep_failed = unit.prep != kNoPrep &&
                                         !preps[unit.prep].shared.ok;
                const diag::DiagnosticEngine& source =
                    (prep_failed && !unit.engine.has_errors())
                        ? preps[unit.prep].engine
                        : unit.engine;
                result.quarantined.push_back(quarantine_record(
                    unit.name, unit.subsystem->name, source, 0));
                engine.warning(diag::codes::kFlowQuarantine,
                               "strategy '" + unit.name +
                                   "' quarantined for subsystem '" +
                                   unit.subsystem->name +
                                   "'; other subsystems continue");
                // A failed unit never ships files or a checkpoint.
                sr.files.clear();
                if (checkpointing) checkpoints->drop(unit.key);
            } else if (checkpointing) {
                checkpoints->save(unit.key, sr);
            }
        }

        if (trace)
            for (const GeneratedFile& f : sr.files)
                trace->add_output({f.name, unit.name, f.contents.size()});
        result.results.push_back(std::move(sr));
    }

    const bool any_ok = std::any_of(
        result.results.begin(), result.results.end(),
        [](const StrategyResult& r) { return r.ok; });
    if (result.quarantined.empty())
        result.status = GenerateStatus::Ok;
    else if (any_ok)
        result.status = GenerateStatus::Partial;
    else
        result.status = GenerateStatus::Failed;
    result.ok = result.status == GenerateStatus::Ok;
    return result;
}

std::string to_manifest_json(const GenerateResult& result) {
    std::ostringstream out;
    out << "{\n  \"schema\": \"uhcg-flow-manifest-v1\",\n";
    out << "  \"status\": \"" << to_string(result.status) << "\",\n";
    out << "  \"strategies\": [";
    for (std::size_t i = 0; i < result.results.size(); ++i) {
        const StrategyResult& r = result.results[i];
        out << (i ? ",\n    " : "\n    ");
        out << "{\"strategy\": \"" << diag::json_escape(r.strategy)
            << "\", \"subsystem\": \"" << diag::json_escape(r.subsystem)
            << "\", \"ok\": " << (r.ok ? "true" : "false")
            << ", \"cached\": " << (r.cached ? "true" : "false")
            << ", \"files\": [";
        for (std::size_t f = 0; f < r.files.size(); ++f) {
            if (f) out << ", ";
            out << "{\"name\": \"" << diag::json_escape(r.files[f].name)
                << "\", \"bytes\": " << r.files[f].contents.size() << '}';
        }
        out << "]}";
    }
    out << (result.results.empty() ? "]" : "\n  ]") << ",\n";
    out << "  \"quarantined\": [";
    for (std::size_t i = 0; i < result.quarantined.size(); ++i) {
        const QuarantineRecord& q = result.quarantined[i];
        out << (i ? ",\n    " : "\n    ");
        out << "{\"strategy\": \"" << diag::json_escape(q.strategy)
            << "\", \"subsystem\": \"" << diag::json_escape(q.subsystem)
            << "\", \"reason\": \"" << diag::json_escape(q.reason)
            << "\", \"error_codes\": [";
        for (std::size_t c = 0; c < q.error_codes.size(); ++c) {
            if (c) out << ", ";
            out << '"' << diag::json_escape(q.error_codes[c]) << '"';
        }
        out << "]}";
    }
    out << (result.quarantined.empty() ? "]" : "\n  ]") << "\n}";
    return out.str();
}

}  // namespace uhcg::flow
