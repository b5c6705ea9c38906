#include "flow/caam_passes.hpp"

#include <stdexcept>

#include "simulink/caam.hpp"
#include "simulink/generic.hpp"
#include "simulink/mdl.hpp"
#include "uml/wellformed.hpp"

namespace uhcg::flow {

void register_caam_passes(PassManager& pm, const core::MapperOptions& options,
                          CaamPipelineMode mode) {
    const bool engine_mode = mode == CaamPipelineMode::Engine;
    pm.set_trap_exceptions(engine_mode);
    pm.set_internal_error_code(diag::codes::kMapInternal);

    // Gate: the conventions of §4.1 must hold or the mapping mis-wires.
    // All issues are collected before deciding whether to abort, so a model
    // with three independent defects yields three diagnostics in one run.
    pm.add(Pass("uml.wellformed",
                [options, engine_mode](PassContext& ctx) {
                    const uml::Model& model = *ctx.in<SourceModel>().model;
                    auto issues = uml::check(model);
                    ctx.count("issues", issues.size());
                    for (const uml::Issue& i : issues) {
                        std::string code = "uml.";
                        code += (i.rule && i.rule[0]) ? i.rule : "wellformed";
                        ctx.diags().report(i.severity == uml::Severity::Error
                                               ? diag::Severity::Error
                                               : diag::Severity::Warning,
                                           std::move(code),
                                           "[" + i.where + "] " + i.message);
                    }
                    bool gate = options.enforce_wellformedness &&
                                !uml::only_warnings(issues);
                    if (gate && !engine_mode)
                        throw std::runtime_error("UML model is ill-formed:\n" +
                                                 uml::format_issues(issues));
                    ctx.out(WellformedReport{std::move(issues)});
                    if (gate) ctx.fail();
                })
           .reads<SourceModel>()
           .writes<WellformedReport>());

    // Analyses feeding the mapping. flow::generate seeds the store with
    // its one analysis; a standalone pipeline analyzes here.
    pm.add(Pass("core.comm",
                [](PassContext& ctx) {
                    const core::CommModel& comm =
                        ctx.store().has<core::CommModel>()
                            ? ctx.in<core::CommModel>()
                            : ctx.out(core::analyze_communication(
                                  *ctx.in<SourceModel>().model));
                    ctx.count("channels", comm.channels().size());
                    ctx.count("io-accesses", comm.io_accesses().size());
                })
           .reads<SourceModel>()
           .writes<core::CommModel>()
           .runs_after("uml.wellformed"));

    pm.add(Pass("core.allocate",
                [options](PassContext& ctx) {
                    const uml::Model& model = *ctx.in<SourceModel>().model;
                    const core::CommModel& comm = ctx.in<core::CommModel>();
                    core::Allocation& alloc = ctx.out(
                        options.auto_allocate
                            ? core::auto_allocate(model, comm,
                                                  options.max_processors)
                            : core::allocation_from_deployment(model));
                    ctx.count("processors", alloc.processor_count());
                })
           .reads<SourceModel>()
           .reads<core::CommModel>()
           .writes<core::Allocation>());

    // Step 2: model-to-model transformation.
    pm.add(Pass("core.mapping",
                [](PassContext& ctx) {
                    const uml::Model& model = *ctx.in<SourceModel>().model;
                    core::MappingOutput& mapped =
                        ctx.out(core::run_mapping(model, ctx.in<core::CommModel>(),
                                                  ctx.in<core::Allocation>()));
                    for (const auto& [rule, count] : mapped.stats.applications)
                        ctx.count("rule." + rule, count);
                    ctx.count("trace-links", mapped.stats.trace_links);
                    for (const std::string& w : mapped.warnings)
                        ctx.diags().warning(diag::codes::kMapRule, w);
                })
           .reads<SourceModel>()
           .reads<core::CommModel>()
           .reads<core::Allocation>()
           .writes<core::MappingOutput>());

    // Lift the generic CAAM into the typed API for optimization.
    pm.add(Pass("caam.lift",
                [](PassContext& ctx) {
                    simulink::Model& caam = ctx.out(
                        simulink::from_generic(ctx.in<core::MappingOutput>().caam));
                    ctx.count("blocks", simulink::caam_stats(caam).total_blocks);
                })
           .reads<core::MappingOutput>()
           .writes<simulink::Model>());

    // Step 3: optimizations (both mutate the CAAM in place, hence barriers).
    if (options.infer_channels) {
        pm.add(Pass("caam.channels",
                    [](PassContext& ctx) {
                        core::ChannelReport& report =
                            ctx.out(core::infer_channels(
                                ctx.inout<simulink::Model>(),
                                ctx.in<core::CommModel>()));
                        ctx.count("intra", report.intra_channels);
                        ctx.count("inter", report.inter_channels);
                        ctx.count("system-ports",
                                  report.system_inputs + report.system_outputs);
                        for (const std::string& w : report.warnings)
                            ctx.diags().warning(diag::codes::kMapChannels, w);
                    })
               .reads<simulink::Model>()
               .reads<core::CommModel>()
               .writes<core::ChannelReport>());
    }
    if (options.insert_delays) {
        pm.add(Pass("caam.delays",
                    [](PassContext& ctx) {
                        core::DelayReport& report = ctx.out(
                            core::insert_temporal_barriers(
                                ctx.inout<simulink::Model>()));
                        ctx.count("barriers", report.inserted);
                    })
               .reads<simulink::Model>()
               .writes<core::DelayReport>()
               .runs_after("caam.channels"));
    }

    // Conformance of the produced CAAM before handing it onward. The
    // legacy throwing surface never validated; keep that contract.
    if (engine_mode) {
        pm.add(Pass("caam.validate",
                    [options](PassContext& ctx) {
                        const simulink::Model& caam = ctx.in<simulink::Model>();
                        auto problems = simulink::validate_caam(caam);
                        ctx.count("problems", problems.size());
                        for (const std::string& p : problems)
                            ctx.diags().error(diag::codes::kCaamInvalid, p);
                        // Gate on this CAAM's own problems, not the whole
                        // engine: under quarantine another subsystem's
                        // failure must not fail this one.
                        if (!problems.empty() &&
                            options.enforce_wellformedness)
                            ctx.fail();
                    })
               .reads<simulink::Model>()
               .runs_after("caam.channels")
               .runs_after("caam.delays"));
    }
}

void register_mdl_emit_pass(PassManager& pm, const core::MapperOptions&) {
    // Step 4: model-to-text.
    pm.add(Pass("simulink.emit",
                [](PassContext& ctx) {
                    MdlText& mdl = ctx.out(
                        MdlText{simulink::write_mdl(ctx.in<simulink::Model>())});
                    ctx.count("bytes", mdl.text.size());
                })
           .reads<simulink::Model>()
           .writes<MdlText>()
           .runs_after("caam.channels")
           .runs_after("caam.delays")
           .runs_after("caam.validate")
           // Present only in the resilient generate pipeline; ignored by
           // the legacy wrappers, which never register the probe.
           .runs_after("sim.schedulability"));
}

void fill_mapper_report(core::MapperReport& report, const ArtifactStore& store,
                        const diag::DiagnosticEngine& engine,
                        std::size_t first_diagnostic) {
    if (const core::MappingOutput* mapped = store.get<core::MappingOutput>())
        report.rule_stats = mapped->stats;
    if (const core::Allocation* alloc = store.get<core::Allocation>())
        report.allocation = *alloc;
    if (const core::ChannelReport* channels = store.get<core::ChannelReport>())
        report.channels = *channels;
    if (const core::DelayReport* delays = store.get<core::DelayReport>())
        report.delays = *delays;
    const auto& diags = engine.diagnostics();
    report.diagnostics.assign(diags.begin() + first_diagnostic, diags.end());
}

}  // namespace uhcg::flow
