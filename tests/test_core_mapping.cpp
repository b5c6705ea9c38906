// Tests for the §4.1 mapping rules: the didactic example of Fig. 3 and the
// individual translation rules (deployment → CPU-SS, threads → Thread-SS,
// method calls → blocks, parameters → ports, arguments → links, Set/Get →
// channel ports, <<IO>> → system-port annotations).
#include <gtest/gtest.h>

#include "cases/cases.hpp"
#include "core/mapping.hpp"
#include "core/pipeline.hpp"
#include "simulink/caam.hpp"
#include "simulink/generic.hpp"
#include "uml/builder.hpp"

namespace {

using namespace uhcg;
using namespace uhcg::core;
using simulink::Block;
using simulink::BlockType;
using simulink::CaamRole;

/// Runs only the m2m step (no optimizations) and lifts to the typed API.
simulink::Model map_only(const uml::Model& m) {
    CommModel comm = analyze_communication(m);
    Allocation alloc = allocation_from_deployment(m);
    MappingOutput out = run_mapping(m, comm, alloc);
    return simulink::from_generic(out.caam);
}

class DidacticMapping : public ::testing::Test {
protected:
    uml::Model m = cases::didactic_model();
    simulink::Model caam = map_only(m);
};

TEST_F(DidacticMapping, CpuSubsystemsFromDeployment) {
    auto cpus = simulink::cpu_subsystems(caam);
    ASSERT_EQ(cpus.size(), 2u);
    EXPECT_EQ(cpus[0]->name(), "CPU1");
    EXPECT_EQ(cpus[1]->name(), "CPU2");
}

TEST_F(DidacticMapping, ThreadSubsystemsNestInTheirCpu) {
    auto cpus = simulink::cpu_subsystems(caam);
    auto cpu1_threads = simulink::thread_subsystems(*cpus[0]);
    auto cpu2_threads = simulink::thread_subsystems(*cpus[1]);
    ASSERT_EQ(cpu1_threads.size(), 2u);
    EXPECT_EQ(cpu1_threads[0]->name(), "T1");
    EXPECT_EQ(cpu1_threads[1]->name(), "T2");
    ASSERT_EQ(cpu2_threads.size(), 1u);
    EXPECT_EQ(cpu2_threads[0]->name(), "T3");
}

TEST_F(DidacticMapping, PassiveCallsBecomeSFunctions) {
    Block* t1 = simulink::cpu_subsystems(caam)[0]->system()->find_block("T1");
    ASSERT_NE(t1, nullptr);
    Block* calc = t1->system()->find_block("calc");
    ASSERT_NE(calc, nullptr);
    EXPECT_EQ(calc->type(), BlockType::SFunction);
    EXPECT_EQ(calc->parameter_or("FunctionName", ""), "calc");
    // Fig. 3: "The a parameter from calc method and its return are mapped
    // to an input port and an output port in the calc S-function."
    EXPECT_EQ(calc->input_count(), 1);
    EXPECT_EQ(calc->output_count(), 1);
    EXPECT_EQ(calc->input_name(1), "a");
    EXPECT_EQ(calc->output_name(1), "r1");
}

TEST_F(DidacticMapping, PlatformMultBecomesProduct) {
    Block* t1 = simulink::cpu_subsystems(caam)[0]->system()->find_block("T1");
    Block* mult = t1->system()->find_block("mult");
    ASSERT_NE(mult, nullptr);
    EXPECT_EQ(mult->type(), BlockType::Product);
    EXPECT_EQ(mult->input_count(), 2);
    // r1 and r2 feed the Product: data links by argument name.
    const simulink::Line* into1 = t1->system()->line_into({mult, 1});
    const simulink::Line* into2 = t1->system()->line_into({mult, 2});
    ASSERT_NE(into1, nullptr);
    ASSERT_NE(into2, nullptr);
    EXPECT_EQ(into1->source().block->name(), "calc");
    EXPECT_EQ(into2->source().block->name(), "dec");
}

TEST_F(DidacticMapping, ArgumentReturnChainBuildsDataLinks) {
    // "The r1 argument is passed from calc to mult, thus a connection is
    // instantiated between these ports."
    Block* t1 = simulink::cpu_subsystems(caam)[0]->system()->find_block("T1");
    Block* calc = t1->system()->find_block("calc");
    const simulink::Line* line = t1->system()->line_from({calc, 1});
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->name(), "r1");
}

TEST_F(DidacticMapping, SetMessageCreatesChannelOutport) {
    Block* t1 = simulink::cpu_subsystems(caam)[0]->system()->find_block("T1");
    int port = t1->output_named("r3");
    ASSERT_GT(port, 0);
    // The Outport block inside carries the channel annotation.
    bool found = false;
    for (Block* b : t1->system()->blocks_of(BlockType::Outport)) {
        if (b->parameter_or("Var", "") == "r3") {
            EXPECT_EQ(b->parameter_or("CommKind", ""), kCommKindChannel);
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST_F(DidacticMapping, GetMessageCreatesChannelInport) {
    Block* t1 = simulink::cpu_subsystems(caam)[0]->system()->find_block("T1");
    EXPECT_GT(t1->input_named("v"), 0);
    bool found = false;
    for (Block* b : t1->system()->blocks_of(BlockType::Inport)) {
        if (b->parameter_or("Var", "") == "v")
            found = b->parameter_or("CommKind", "") == kCommKindChannel;
    }
    EXPECT_TRUE(found);
}

TEST_F(DidacticMapping, ProducerObligationFromConsumerGet) {
    // T3 never Sets v, but T1 Gets it: rule 4 must synthesize the outport.
    Block* t3 = simulink::cpu_subsystems(caam)[1]->system()->find_block("T3");
    ASSERT_NE(t3, nullptr);
    EXPECT_GT(t3->output_named("v"), 0);
}

TEST_F(DidacticMapping, IoAccessesAnnotated) {
    // T3's getValue on the <<IO>> device → io-kind Inport.
    Block* t3 = simulink::cpu_subsystems(caam)[1]->system()->find_block("T3");
    bool io_in = false;
    for (Block* b : t3->system()->blocks_of(BlockType::Inport))
        if (b->parameter_or("CommKind", "") == kCommKindIo) io_in = true;
    EXPECT_TRUE(io_in);
    // T2's setOut → io-kind Outport.
    Block* t2 = simulink::cpu_subsystems(caam)[0]->system()->find_block("T2");
    bool io_out = false;
    for (Block* b : t2->system()->blocks_of(BlockType::Outport))
        if (b->parameter_or("CommKind", "") == kCommKindIo) io_out = true;
    EXPECT_TRUE(io_out);
}

TEST_F(DidacticMapping, UndefinedArgsBecomeSystemInputs) {
    // calc's "a" and dec's "x" have no producers: open system inputs.
    Block* t1 = simulink::cpu_subsystems(caam)[0]->system()->find_block("T1");
    int system_ins = 0;
    for (Block* b : t1->system()->blocks_of(BlockType::Inport))
        if (b->parameter_or("CommKind", "") == kCommKindSystem) ++system_ins;
    EXPECT_EQ(system_ins, 2);
}

TEST_F(DidacticMapping, NumericLiteralBecomesConstant) {
    // T2's mult(r3, 2.0): the literal materializes as a Constant block.
    Block* t2 = simulink::cpu_subsystems(caam)[0]->system()->find_block("T2");
    auto constants = t2->system()->blocks_of(BlockType::Constant);
    ASSERT_EQ(std::ranges::distance(constants), 1);
    EXPECT_EQ(constants.front()->parameter_or("Value", ""), "2.0");
}

TEST_F(DidacticMapping, RuleStatsReported) {
    CommModel comm = analyze_communication(m);
    Allocation alloc = allocation_from_deployment(m);
    MappingOutput out = run_mapping(m, comm, alloc);
    EXPECT_EQ(out.stats.applications.at("Model2Caam"), 1u);
    EXPECT_EQ(out.stats.applications.at("Thread2ThreadSS"), 3u);
    EXPECT_EQ(out.stats.applications.at("Interaction2Layer"), 3u);
    EXPECT_TRUE(out.warnings.empty());
}

// --- rule-level behaviours on focused models -----------------------------------------

TEST(MappingRules, DeclaredOutParamsDefineVariables) {
    uml::ModelBuilder b("m");
    auto op = b.cls("P").op("plant");
    op.in("F");
    op.out("x");
    op.out("theta");
    b.thread("T");
    b.passive("P1", "P");
    b.seq("sd").message("T", "P1", "plant").arg("f_in").arg("pos").arg("ang");
    b.cpu("CPU1");
    b.deploy("T", "CPU1");
    simulink::Model caam = map_only(b.model());
    Block* t = simulink::cpu_subsystems(caam)[0]->system()->find_block("T");
    Block* plant = t->system()->find_block("plant");
    ASSERT_NE(plant, nullptr);
    EXPECT_EQ(plant->input_count(), 1);
    EXPECT_EQ(plant->output_count(), 2);
    // Out ports are named by the *actual* binding names.
    EXPECT_EQ(plant->output_name(1), "pos");
    EXPECT_EQ(plant->output_name(2), "ang");
    EXPECT_EQ(plant->parameter_or("FunctionName", ""), "plant");
}

TEST(MappingRules, OperationBodyTravelsAsSource) {
    uml::ModelBuilder b("m");
    b.cls("C").op("f").in("x").result("r").body("out[0] = in[0];");
    b.thread("T");
    b.passive("C1", "C");
    b.seq("sd").message("T", "C1", "f").arg("x").result("r");
    b.cpu("CPU1");
    b.deploy("T", "CPU1");
    simulink::Model caam = map_only(b.model());
    Block* t = simulink::cpu_subsystems(caam)[0]->system()->find_block("T");
    Block* f = t->system()->find_block("f");
    EXPECT_EQ(f->parameter_or("Source", ""), "out[0] = in[0];");
}

TEST(MappingRules, RepeatedCallsGetUniqueBlockNames) {
    uml::ModelBuilder b("m");
    b.cls("C").op("f").in("x").result("r");
    b.thread("T");
    b.passive("C1", "C");
    auto sd = b.seq("sd");
    sd.message("T", "C1", "f").arg("1.0").result("r1");
    sd.message("T", "C1", "f").arg("r1").result("r2");
    b.cpu("CPU1");
    b.deploy("T", "CPU1");
    simulink::Model caam = map_only(b.model());
    Block* t = simulink::cpu_subsystems(caam)[0]->system()->find_block("T");
    EXPECT_NE(t->system()->find_block("f"), nullptr);
    EXPECT_NE(t->system()->find_block("f_1"), nullptr);
}

TEST(MappingRules, PlatformSumAndGain) {
    uml::ModelBuilder b("m");
    b.thread("T");
    b.platform();
    b.iodevice("Dev");
    auto sd = b.seq("sd");
    sd.message("T", "Dev", "getU").result("u");
    sd.message("T", "Platform", "add").arg("u").arg("1.5").result("s");
    sd.message("T", "Platform", "gain").arg("s").result("g");
    sd.message("T", "Platform", "sub").arg("g").arg("u").result("d");
    sd.message("T", "Dev", "setY").arg("d");
    b.cpu("CPU1");
    b.deploy("T", "CPU1");
    simulink::Model caam = map_only(b.model());
    Block* t = simulink::cpu_subsystems(caam)[0]->system()->find_block("T");
    EXPECT_EQ(t->system()->find_block("add")->type(), BlockType::Sum);
    EXPECT_EQ(t->system()->find_block("gain")->type(), BlockType::Gain);
    Block* sub = t->system()->find_block("sub");
    ASSERT_NE(sub, nullptr);
    EXPECT_EQ(sub->type(), BlockType::Sum);
    EXPECT_EQ(sub->parameter_or("Inputs", ""), "+-");
}

TEST(MappingRules, SelfMessageWarnsAndSkips) {
    uml::ModelBuilder b("m");
    b.thread("T");
    auto sd = b.seq("sd");
    sd.message("T", "T", "SetLoop").arg("x");
    b.cpu("CPU1");
    b.deploy("T", "CPU1");
    CommModel comm = analyze_communication(b.model());
    Allocation alloc = allocation_from_deployment(b.model());
    MappingOutput out = run_mapping(b.model(), comm, alloc);
    ASSERT_FALSE(out.warnings.empty());
    EXPECT_NE(out.warnings[0].find("self message"), std::string::npos);
}

TEST(MappingRules, MissingProducerIsReported) {
    uml::ModelBuilder b("m");
    b.thread("A");
    b.thread("B");
    auto sd = b.seq("sd");
    // B reads "ghost" from A, but A never defines it.
    sd.message("B", "A", "GetGhost").result("ghost");
    // Keep A alive in a diagram so the model is otherwise fine.
    sd.message("A", "B", "SetReal").arg("1.0");
    b.cpu("CPU1");
    b.deploy("A", "CPU1").deploy("B", "CPU1");
    CommModel comm = analyze_communication(b.model());
    Allocation alloc = allocation_from_deployment(b.model());
    MappingOutput out = run_mapping(b.model(), comm, alloc);
    bool reported = false;
    for (const auto& w : out.warnings)
        if (w.find("never produces") != std::string::npos &&
            w.find("ghost") != std::string::npos)
            reported = true;
    EXPECT_TRUE(reported);
}

TEST(MappingRules, ThreadSubsystemPortCountsMatchInnerBlocks) {
    simulink::Model caam = map_only(cases::didactic_model());
    // C4 of the validator must hold already after the bare mapping.
    for (const std::string& p : simulink::validate_caam(caam))
        EXPECT_TRUE(p.rfind("C4", 0) != 0) << p;
}

TEST(MappingRules, GenericOutputConformsToMetamodel) {
    uml::Model m = cases::didactic_model();
    CommModel comm = analyze_communication(m);
    Allocation alloc = allocation_from_deployment(m);
    MappingOutput out = run_mapping(m, comm, alloc);
    EXPECT_EQ(&out.caam.metamodel(), &simulink::caam_metamodel());
    // Lift + serialize round trip works on the raw mapping output.
    simulink::Model typed = simulink::from_generic(out.caam);
    EXPECT_GT(typed.root().total_blocks(), 0u);
}

}  // namespace
