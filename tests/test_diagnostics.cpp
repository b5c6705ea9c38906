// Tests for the uhcg::diag subsystem: engine mechanics (dedupe, ordering,
// rendering), multi-error recovery in the XMI reader, the malformed-input
// corpus under tests/data/bad/, and the sim/kpn execution watchdogs.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "cases/cases.hpp"
#include "core/pipeline.hpp"
#include "diag/diag.hpp"
#include "kpn/execute.hpp"
#include "kpn/from_uml.hpp"
#include "sim/engine.hpp"
#include "simulink/model.hpp"
#include "uml/xmi.hpp"
#include "xml/parser.hpp"

using namespace uhcg;

namespace {

std::string bad_path(const std::string& name) {
    return std::string(UHCG_TEST_DATA_DIR) + "/bad/" + name;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.is_open()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

/// `<a>` nested `depth` levels deep: well-formed XML of any depth.
std::string nested_document(std::size_t depth) {
    std::string text;
    text.reserve(depth * 7);
    for (std::size_t i = 0; i < depth; ++i) text += "<a>";
    for (std::size_t i = 0; i < depth; ++i) text += "</a>";
    return text;
}

}  // namespace

// --- engine mechanics ---------------------------------------------------------------

TEST(DiagnosticEngine, StartsEmpty) {
    diag::DiagnosticEngine engine;
    EXPECT_TRUE(engine.empty());
    EXPECT_FALSE(engine.has_errors());
    EXPECT_EQ(engine.error_count(), 0u);
}

TEST(DiagnosticEngine, CountsBySeverity) {
    diag::DiagnosticEngine engine;
    engine.error("xmi.bad-value", "one");
    engine.warning("map.rule", "two");
    engine.note("map.rule", "three");
    engine.report(diag::Severity::Fatal, diag::codes::kXmlParse, "four");
    EXPECT_EQ(engine.size(), 4u);
    EXPECT_EQ(engine.error_count(), 2u);  // Error + Fatal
    EXPECT_EQ(engine.warning_count(), 1u);
    EXPECT_TRUE(engine.has_errors());
}

TEST(DiagnosticEngine, DeduplicatesIdenticalReports) {
    diag::DiagnosticEngine engine;
    for (int i = 0; i < 5; ++i)
        engine.error("xmi.bad-value", "same thing", {"f.xmi", 3, 7});
    EXPECT_EQ(engine.size(), 1u);
    // A different location is a different diagnostic.
    engine.error("xmi.bad-value", "same thing", {"f.xmi", 4, 7});
    EXPECT_EQ(engine.size(), 2u);
}

TEST(DiagnosticEngine, SortsByLocation) {
    diag::DiagnosticEngine engine;
    engine.error("c.one", "late", {"f.xmi", 9, 1});
    engine.error("c.two", "early", {"f.xmi", 2, 5});
    engine.error("c.three", "nofile", {});
    auto sorted = engine.sorted();
    ASSERT_EQ(sorted.size(), 3u);
    EXPECT_EQ(sorted[0]->message, "nofile");  // empty file sorts first
    EXPECT_EQ(sorted[1]->message, "early");
    EXPECT_EQ(sorted[2]->message, "late");
}

TEST(DiagnosticEngine, RenderTextHasCaretWhenSourceKnown) {
    diag::DiagnosticEngine engine;
    engine.register_source("m.xmi", "line one\nline two here\nline three\n");
    engine.error("xmi.bad-value", "something wrong", {"m.xmi", 2, 6});
    std::string text = engine.render_text();
    EXPECT_NE(text.find("m.xmi:2:6: error: something wrong [xmi.bad-value]"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("line two here"), std::string::npos) << text;
    EXPECT_NE(text.find("^"), std::string::npos) << text;
    EXPECT_NE(text.find("1 error(s)"), std::string::npos) << text;
}

TEST(DiagnosticEngine, RenderJsonCarriesLocationAndNotes) {
    diag::DiagnosticEngine engine;
    engine.report(diag::Severity::Error, "kpn.read-blocked", "stalled \"here\"",
                  {"m.xmi", 4, 2}, {"blocked process(es): A, B"});
    std::string json = engine.render_json();
    EXPECT_NE(json.find("\"errors\": 1"), std::string::npos) << json;
    EXPECT_NE(json.find("\"code\": \"kpn.read-blocked\""), std::string::npos);
    EXPECT_NE(json.find("\"line\": 4"), std::string::npos);
    EXPECT_NE(json.find("stalled \\\"here\\\""), std::string::npos);  // escaping
    EXPECT_NE(json.find("blocked process(es): A, B"), std::string::npos);
}

TEST(DiagnosticEngine, CountCode) {
    diag::DiagnosticEngine engine;
    engine.error("a.b", "x");
    engine.error("a.b", "y");
    engine.error("c.d", "z");
    EXPECT_EQ(engine.count_code("a.b"), 2u);
    EXPECT_EQ(engine.count_code("c.d"), 1u);
    EXPECT_EQ(engine.count_code("nope"), 0u);
}

// --- multi-error recovery in the XMI reader -----------------------------------------

// Acceptance criterion: a single XMI with three independent defects yields
// three diagnostics (with line/column) in one run — not one throw.
TEST(XmiRecovery, ThreeDefectsYieldThreeDiagnosticsInOneRun) {
    diag::DiagnosticEngine engine;
    uml::Model model = uml::load_xmi(bad_path("multi_error.xmi"), engine);
    EXPECT_EQ(engine.error_count(), 3u) << engine.render_text();
    EXPECT_EQ(engine.count_code(diag::codes::kXmiMissingAttribute), 1u);
    EXPECT_EQ(engine.count_code(diag::codes::kXmiDanglingReference), 1u);
    EXPECT_EQ(engine.count_code(diag::codes::kXmiBadValue), 1u);
    for (const diag::Diagnostic& d : engine.diagnostics()) {
        EXPECT_TRUE(d.location.known()) << d.message;
        EXPECT_NE(d.location.file.find("multi_error.xmi"), std::string::npos);
    }
    // Recovery still produced the healthy parts of the model.
    EXPECT_EQ(model.objects().size(), 2u);  // T1, T2 survive; X is skipped
    EXPECT_EQ(model.sequence_diagrams().size(), 1u);
}

TEST(XmiRecovery, DiagnosticsPointAtTheOffendingLine) {
    diag::DiagnosticEngine engine;
    uml::load_xmi(bad_path("missing_name.xmi"), engine);
    ASSERT_TRUE(engine.has_errors());
    const diag::Diagnostic& d = engine.diagnostics().front();
    EXPECT_EQ(d.code, diag::codes::kXmiMissingAttribute);
    EXPECT_EQ(d.location.line, 4u);  // the <packagedElement> for class.A
    // The renderer can show the offending source line (load_xmi registers it).
    EXPECT_NE(engine.render_text().find("class.A"), std::string::npos);
}

TEST(XmiRecovery, ThrowingWrapperStillThrowsOnErrors) {
    std::string text = slurp(bad_path("multi_error.xmi"));
    EXPECT_THROW(uml::from_xmi_string(text), std::runtime_error);
}

TEST(XmiRecovery, CleanModelRoundTripsWithoutDiagnostics) {
    uml::Model crane = cases::crane_model();
    diag::DiagnosticEngine engine;
    uml::Model back = uml::from_xmi_string(uml::to_xmi_string(crane), engine);
    EXPECT_TRUE(engine.empty()) << engine.render_text();
    EXPECT_EQ(back.threads().size(), crane.threads().size());
}

TEST(XmiRecovery, SelfReferentialChannelIsDroppedNotLoaded) {
    diag::DiagnosticEngine engine;
    uml::Model model = uml::load_xmi(bad_path("self_channel.xmi"), engine);
    EXPECT_GE(engine.count_code("xmi.bad-value"), 1u) << engine.render_text();
    // The self-message is dropped; the valid T1 -> T2 message survives.
    ASSERT_EQ(model.sequence_diagrams().size(), 1u);
    EXPECT_EQ(model.sequence_diagrams()[0]->messages().size(), 1u);
}

TEST(XmiRecovery, MultiDefectFileReportsEveryDefectInOneRun) {
    // Duplicate xmi:id + self-referential channel + dangling lifeline
    // reference: the recovering reader must surface all three defect
    // classes in a single pass, not stop at the first.
    diag::DiagnosticEngine engine;
    uml::Model model = uml::load_xmi(bad_path("multi_defect.xmi"), engine);
    EXPECT_GE(engine.count_code("xmi.duplicate-id"), 1u)
        << engine.render_text();
    EXPECT_GE(engine.count_code("xmi.bad-value"), 1u) << engine.render_text();
    EXPECT_GE(engine.count_code("xmi.dangling-reference"), 1u)
        << engine.render_text();
}

// --- the malformed-input corpus -----------------------------------------------------

struct CorpusCase {
    const char* file;
    const char* code;  // at least one diagnostic with this code
};

class BadCorpus : public ::testing::TestWithParam<CorpusCase> {};

TEST_P(BadCorpus, ProducesTheExpectedDiagnostic) {
    const CorpusCase& c = GetParam();
    diag::DiagnosticEngine engine;
    uml::Model model = uml::load_xmi(bad_path(c.file), engine);
    EXPECT_TRUE(engine.has_errors()) << c.file;
    EXPECT_GE(engine.count_code(c.code), 1u)
        << c.file << " expected " << c.code << "\n"
        << engine.render_text();
    // Every corpus diagnostic names the input file.
    for (const diag::Diagnostic& d : engine.diagnostics())
        EXPECT_NE(d.location.file.find(c.file), std::string::npos) << d.message;
}

INSTANTIATE_TEST_SUITE_P(
    AllFiles, BadCorpus,
    ::testing::Values(
        CorpusCase{"missing_name.xmi", "xmi.missing-attribute"},
        CorpusCase{"dangling_classifier.xmi", "xmi.dangling-reference"},
        CorpusCase{"unknown_stereotype.xmi", "xmi.unknown-stereotype"},
        CorpusCase{"bad_datasize.xmi", "xmi.bad-value"},
        CorpusCase{"dangling_lifeline.xmi", "xmi.dangling-reference"},
        CorpusCase{"duplicate_id.xmi", "xmi.duplicate-id"},
        CorpusCase{"multi_error.xmi", "xmi.bad-value"},
        CorpusCase{"not_xmi.xmi", "xmi.not-xmi"},
        CorpusCase{"truncated.xmi", "xml.parse"},
        CorpusCase{"truncated_interaction.xmi", "xml.parse"},
        CorpusCase{"self_channel.xmi", "xmi.bad-value"},
        CorpusCase{"multi_defect.xmi", "xmi.duplicate-id"},
        CorpusCase{"bad_direction.xmi", "xmi.bad-value"},
        CorpusCase{"dangling_deployment.xmi", "xmi.dangling-reference"}),
    [](const ::testing::TestParamInfo<CorpusCase>& info) {
        std::string name = info.param.file;
        return name.substr(0, name.find('.'));
    });

// --- nesting depth ----------------------------------------------------------------

TEST(XmlDepth, DeepDocumentIsAStructuredDiagnosticNotACrash) {
    // 30,000 levels overflowed the recursive parser's stack before the
    // depth limit existed.
    diag::DiagnosticEngine engine;
    uml::Model model =
        uml::from_xmi_string(nested_document(30000), engine, "deep.xmi");
    EXPECT_TRUE(engine.has_errors());
    ASSERT_EQ(engine.count_code(diag::codes::kXmlDepth), 1u)
        << engine.render_text();
    EXPECT_EQ(engine.count_code(diag::codes::kXmlParse), 0u);
    const diag::Diagnostic& d = engine.diagnostics().front();
    EXPECT_EQ(d.severity, diag::Severity::Fatal);
    EXPECT_EQ(d.location.file, "deep.xmi");
    EXPECT_NE(d.message.find("depth limit"), std::string::npos) << d.message;
}

TEST(XmlDepth, LimitIsExactAndSyntaxErrorsKeepTheirKind) {
    // Find the limit from the error message, then check both sides of it.
    std::size_t limit = 0;
    try {
        xml::parse(nested_document(30000));
        FAIL() << "30000-deep document accepted";
    } catch (const xml::ParseError& e) {
        EXPECT_EQ(e.kind(), xml::ParseError::Kind::Depth);
        limit = std::stoul(e.detail().substr(e.detail().rfind(' ') + 1));
    }
    ASSERT_GE(limit, 100u);
    EXPECT_NO_THROW(xml::parse(nested_document(limit)));
    try {
        xml::parse(nested_document(limit + 1));
        FAIL() << "document one level past the limit accepted";
    } catch (const xml::ParseError& e) {
        EXPECT_EQ(e.kind(), xml::ParseError::Kind::Depth);
    }
    // Ordinary syntax errors keep their kind.
    try {
        xml::parse("<a><b></a>");
        FAIL() << "mismatched tags accepted";
    } catch (const xml::ParseError& e) {
        EXPECT_EQ(e.kind(), xml::ParseError::Kind::Syntax);
    }
}

// --- pipeline diagnostics -----------------------------------------------------------

TEST(PipelineDiagnostics, CleanModelMapsWithoutErrors) {
    diag::DiagnosticEngine engine;
    auto caam = core::map_to_caam(cases::crane_model(), {}, engine);
    ASSERT_TRUE(caam.has_value()) << engine.render_text();
    EXPECT_FALSE(engine.has_errors());
}

TEST(PipelineDiagnostics, WellformednessErrorsAbortWithUmlCodes) {
    // An IO object that both produces and consumes nothing and a thread
    // messaging it with a Get-style name but arguments — rule E2.
    uml::Model m("broken");
    uml::ObjectInstance& t1 = m.add_object("T1", nullptr);
    t1.add_stereotype(uml::Stereotype::SASchedRes);
    uml::ObjectInstance& io = m.add_object("Sensor", nullptr);
    io.add_stereotype(uml::Stereotype::IO);
    uml::SequenceDiagram& d = m.add_sequence_diagram("T1_behaviour");
    uml::Lifeline& lt = d.add_lifeline(t1);
    uml::Lifeline& li = d.add_lifeline(io);
    uml::Message& msg = d.add_message(lt, li, "badName");  // no Set/Get prefix
    msg.add_argument("x");
    diag::DiagnosticEngine engine;
    auto caam = core::map_to_caam(m, {}, engine);
    EXPECT_FALSE(caam.has_value());
    EXPECT_TRUE(engine.has_errors());
    bool has_uml_code = false;
    for (const diag::Diagnostic& diag : engine.diagnostics())
        if (diag.code.rfind("uml.", 0) == 0) has_uml_code = true;
    EXPECT_TRUE(has_uml_code) << engine.render_text();
}

// --- execution watchdogs ------------------------------------------------------------

TEST(SimWatchdog, CombinationalCycleBecomesStructuredDiagnostic) {
    simulink::Model m("dead");
    simulink::Block& g1 = m.root().add_block("g1", simulink::BlockType::Gain);
    simulink::Block& g2 = m.root().add_block("g2", simulink::BlockType::Gain);
    m.root().add_line({&g1, 1}, {&g2, 1});
    m.root().add_line({&g2, 1}, {&g1, 1});
    sim::SFunctionRegistry reg;
    diag::DiagnosticEngine engine;
    auto simulator = sim::Simulator::build(m, reg, engine);
    EXPECT_FALSE(simulator.has_value());
    ASSERT_EQ(engine.count_code(diag::codes::kSimDeadlock), 1u)
        << engine.render_text();
    const diag::Diagnostic& d = engine.diagnostics().front();
    // The payload names the cycle members and their dependency edges.
    bool names_edge = false, names_block = false;
    for (const std::string& n : d.notes) {
        if (n.find("->") != std::string::npos) names_edge = true;
        if (n.find("g1") != std::string::npos) names_block = true;
    }
    EXPECT_TRUE(names_edge) << engine.render_text();
    EXPECT_TRUE(names_block) << engine.render_text();
}

TEST(SimWatchdog, StepBudgetCutsRunShort) {
    simulink::Model m("ok");
    simulink::Block& c = m.root().add_block("c", simulink::BlockType::Constant);
    c.set_parameter("Value", "2.5");
    simulink::Block& out = m.root().add_block("y", simulink::BlockType::Outport);
    out.set_parameter("Port", "1");
    m.root().add_line({&c, 1}, {&out, 1});
    sim::SFunctionRegistry reg;
    diag::DiagnosticEngine engine;
    auto simulator = sim::Simulator::build(m, reg, engine);
    ASSERT_TRUE(simulator.has_value()) << engine.render_text();
    sim::WatchdogBudget budget;
    budget.max_steps = 10;
    sim::SimResult r = simulator->run(1000, engine, budget);
    EXPECT_TRUE(r.budget_exhausted);
    EXPECT_EQ(r.steps, 10u);
    EXPECT_EQ(engine.count_code(diag::codes::kSimWatchdog), 1u);
    // A tripped livelock guard is an error: the run did not complete.
    EXPECT_TRUE(engine.has_errors());
}

TEST(KpnWatchdog, ReadBlockedBecomesStructuredDiagnostic) {
    kpn::Network n("cycle");
    kpn::Process& a = n.add_process("A");
    a.add_input("b");
    a.add_output("a");
    kpn::Process& b = n.add_process("B");
    b.add_input("a");
    b.add_output("b");
    n.connect(a, 0, b, 0, "a");
    n.connect(b, 0, a, 0, "b");
    kpn::KernelRegistry reg;
    reg.register_kernel("A", [](auto in, auto out, auto&) { out[0] = in[0]; });
    reg.register_kernel("B", [](auto in, auto out, auto&) { out[0] = in[0]; });
    kpn::Executor exec(n, reg);
    diag::DiagnosticEngine engine;
    kpn::KpnResult r = exec.run(3, engine);
    EXPECT_TRUE(r.deadlocked);
    EXPECT_EQ(r.blocked.size(), 2u);
    EXPECT_EQ(r.channel_states.size(), 2u);
    for (const kpn::ChannelState& cs : r.channel_states)
        EXPECT_EQ(cs.tokens, 0u) << cs.variable;
    ASSERT_EQ(engine.count_code(diag::codes::kKpnReadBlocked), 1u)
        << engine.render_text();
    // Notes carry the channel fill levels.
    std::string text = engine.render_text();
    EXPECT_NE(text.find("blocked process(es)"), std::string::npos) << text;
    EXPECT_NE(text.find("0 token(s)"), std::string::npos) << text;
}

TEST(KpnWatchdog, ThrowingPathCarriesChannelPayload) {
    uml::Model crane = cases::crane_model();
    kpn::KpnMappingOptions options;
    options.auto_initial_tokens = false;
    kpn::KpnMappingOutput out = kpn::map_to_kpn(crane, options);
    kpn::KernelRegistry reg;
    for (const auto& p : out.network.processes())
        reg.register_kernel(p->name(),
                            [](auto, auto outs, auto&) {
                                for (double& v : outs) v = 0.0;
                            });
    kpn::Executor exec(out.network, reg);
    try {
        exec.run(1);
        FAIL() << "expected ReadBlockedError";
    } catch (const kpn::ReadBlockedError& e) {
        EXPECT_FALSE(e.blocked().empty());
        EXPECT_EQ(e.channels().size(), out.network.channels().size());
    }
}

TEST(KpnWatchdog, FiringBudgetStopsLivelock) {
    kpn::Network n("cycle");
    kpn::Process& a = n.add_process("A");
    a.add_input("b");
    a.add_output("a");
    kpn::Process& b = n.add_process("B");
    b.add_input("a");
    b.add_output("b");
    n.connect(a, 0, b, 0, "a");
    n.connect(b, 0, a, 0, "b").initial_tokens = 1;  // runs forever if asked
    kpn::KernelRegistry reg;
    reg.register_kernel("A", [](auto in, auto out, auto&) { out[0] = in[0]; });
    reg.register_kernel("B", [](auto in, auto out, auto&) { out[0] = in[0]; });
    kpn::Executor exec(n, reg);
    diag::DiagnosticEngine engine;
    kpn::WatchdogBudget budget;
    budget.max_firings = 7;
    kpn::KpnResult r = exec.run(1000000, engine, budget);
    EXPECT_TRUE(r.budget_exhausted);
    EXPECT_EQ(r.firings, 7u);
    EXPECT_EQ(engine.count_code(diag::codes::kKpnWatchdog), 1u)
        << engine.render_text();
}
