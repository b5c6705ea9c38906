// Tests for the §4.2 optimizations: channel inference (§4.2.1) and
// temporal-barrier insertion (§4.2.2).
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cases/cases.hpp"
#include "core/delays.hpp"
#include "core/optimize.hpp"
#include "core/pipeline.hpp"
#include "run_with_stack.hpp"
#include "sim/engine.hpp"
#include "simulink/caam.hpp"
#include "uml/builder.hpp"

namespace {

using namespace uhcg;
using namespace uhcg::core;
using simulink::Block;
using simulink::BlockType;
using simulink::CaamRole;
using simulink::Line;
using simulink::PortRef;
using simulink::System;
using test_support::run_with_stack;

class DidacticOptimized : public ::testing::Test {
protected:
    MapperReport report;
    simulink::Model caam =
        map_to_caam(cases::didactic_model(), MapperOptions{}, &report);
};

TEST_F(DidacticOptimized, IntraChannelIsSwFifoInsideCpu) {
    // T1 → T2 (same CPU1): one SWFIFO inside CPU1.
    EXPECT_EQ(report.channels.intra_channels, 1u);
    auto intra = simulink::intra_cpu_channels(caam);
    ASSERT_EQ(intra.size(), 1u);
    EXPECT_EQ(intra[0]->parameter_or("Protocol", ""), simulink::kProtocolSwFifo);
    EXPECT_EQ(intra[0]->parent()->owner_block()->name(), "CPU1");
}

TEST_F(DidacticOptimized, InterChannelIsGFifoAtRoot) {
    // T3 (CPU2) → T1 (CPU1): one GFIFO at the architecture layer.
    EXPECT_EQ(report.channels.inter_channels, 1u);
    auto inter = simulink::inter_cpu_channels(caam);
    ASSERT_EQ(inter.size(), 1u);
    EXPECT_EQ(inter[0]->parameter_or("Protocol", ""), simulink::kProtocolGFifo);
    EXPECT_EQ(inter[0]->parent(), &caam.root());
}

TEST_F(DidacticOptimized, CpuBoundaryPortsGrown) {
    auto cpus = simulink::cpu_subsystems(caam);
    Block* cpu1 = cpus[0];
    Block* cpu2 = cpus[1];
    // CPU2 exports v; CPU1 imports it.
    EXPECT_GT(cpu2->output_named("v"), 0);
    EXPECT_GT(cpu1->input_named("v"), 0);
}

TEST_F(DidacticOptimized, SystemPortsNumbered) {
    // a + x (open inputs of T1) + s (io input of T3) = 3 system inputs;
    // w (io output of T2) = 1 system output, named like Fig. 3(c).
    EXPECT_EQ(report.channels.system_inputs, 3u);
    EXPECT_EQ(report.channels.system_outputs, 1u);
    EXPECT_NE(caam.root().find_block("In1"), nullptr);
    EXPECT_NE(caam.root().find_block("In2"), nullptr);
    EXPECT_NE(caam.root().find_block("In3"), nullptr);
    EXPECT_NE(caam.root().find_block("Out1"), nullptr);
    EXPECT_EQ(caam.root().find_block("Out1")->parameter_or("Var", ""), "w");
}

TEST_F(DidacticOptimized, ResultValidates) {
    auto problems = simulink::validate_caam(caam);
    EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(ChannelInference, FanOutBranchesFromOneProducerPort) {
    // One producer sends x to two consumers on different CPUs: the producer
    // CPU gets a single boundary port with two GFIFO branches at the root.
    uml::ModelBuilder b("fan");
    b.thread("P");
    b.thread("C1");
    b.thread("C2");
    b.platform();
    auto sd = b.seq("sd");
    sd.message("P", "Platform", "gain").arg("1.0").result("x");
    sd.message("P", "C1", "SetX").arg("x");
    sd.message("P", "C2", "SetX").arg("x");
    sd.message("C1", "Platform", "gain").arg("x").result("y1");
    sd.message("C2", "Platform", "gain").arg("x").result("y2");
    b.cpu("CPU1");
    b.cpu("CPU2");
    b.cpu("CPU3");
    b.deploy("P", "CPU1").deploy("C1", "CPU2").deploy("C2", "CPU3");
    MapperReport report;
    simulink::Model caam = map_to_caam(b.take(), {}, &report);
    EXPECT_EQ(report.channels.inter_channels, 2u);
    Block* cpu1 = simulink::cpu_subsystems(caam)[0];
    EXPECT_EQ(cpu1->output_count(), 1);  // one shared boundary port
    const simulink::Line* line = caam.root().line_from({cpu1, 1});
    ASSERT_NE(line, nullptr);
    EXPECT_EQ(line->destinations().size(), 2u);  // branches to both channels
    EXPECT_TRUE(simulink::validate_caam(caam).empty());
}

TEST(ChannelInference, SetAndGetOnSameLinkDeduplicate) {
    uml::ModelBuilder b("dup");
    b.thread("P");
    b.thread("C");
    b.platform();
    auto sd = b.seq("sd");
    sd.message("P", "Platform", "gain").arg("1.0").result("x");
    sd.message("P", "C", "SetX").arg("x");
    sd.message("C", "P", "GetX").result("x");  // same link, consumer side
    sd.message("C", "Platform", "gain").arg("x").result("y");
    b.cpu("CPU1");
    b.deploy("P", "CPU1").deploy("C", "CPU1");
    MapperReport report;
    simulink::Model caam = map_to_caam(b.take(), {}, &report);
    EXPECT_EQ(report.channels.intra_channels, 1u);
    EXPECT_TRUE(simulink::validate_caam(caam).empty());
}

TEST(ChannelInference, OptionalStepCanBeDisabled) {
    MapperOptions options;
    options.infer_channels = false;
    options.insert_delays = false;
    simulink::Model caam = map_to_caam(cases::didactic_model(), options);
    EXPECT_TRUE(simulink::inter_cpu_channels(caam).empty());
    EXPECT_TRUE(simulink::intra_cpu_channels(caam).empty());
}

TEST(SubsystemPortHelpers, GrowPortsAndWire) {
    simulink::Model m("m");
    Block& sub = m.root().add_subsystem("S");
    Block& g = sub.system()->add_block("g", BlockType::Gain);
    int in = add_subsystem_input(sub, "u", {&g, 1});
    int out = add_subsystem_output(sub, "y", {&g, 1});
    EXPECT_EQ(in, 1);
    EXPECT_EQ(out, 1);
    EXPECT_EQ(sub.input_name(1), "u");
    EXPECT_EQ(sub.output_name(1), "y");
    // The inner marker blocks exist and are wired.
    EXPECT_EQ(std::ranges::distance(sub.system()->blocks_of(BlockType::Inport)), 1);
    EXPECT_EQ(std::ranges::distance(sub.system()->blocks_of(BlockType::Outport)), 1);
    EXPECT_NE(sub.system()->line_into({&g, 1}), nullptr);
}

// --- temporal barriers (§4.2.2) -------------------------------------------------------

simulink::Model simple_loop_model() {
    // gain → delayless feedback through a Sum: a combinational cycle.
    simulink::Model m("loop");
    Block& sum = m.root().add_block("sum", BlockType::Sum);
    Block& gain = m.root().add_block("gain", BlockType::Gain);
    Block& c = m.root().add_block("c", BlockType::Constant);
    m.root().add_line({&c, 1}, {&sum, 1});
    m.root().add_line({&sum, 1}, {&gain, 1});
    m.root().add_line({&gain, 1}, {&sum, 2});  // the cycle
    return m;
}

TEST(TemporalBarriers, DetectsAndBreaksSimpleLoop) {
    simulink::Model m = simple_loop_model();
    EXPECT_TRUE(has_combinational_cycle(m));
    DelayReport report = insert_temporal_barriers(m);
    EXPECT_EQ(report.inserted, 1u);
    EXPECT_FALSE(has_combinational_cycle(m));
    // The delay is a UnitDelay block spliced into a data link.
    EXPECT_EQ(std::ranges::distance(m.root().blocks_of(BlockType::UnitDelay)), 1);
}

TEST(TemporalBarriers, Idempotent) {
    simulink::Model m = simple_loop_model();
    insert_temporal_barriers(m);
    DelayReport second = insert_temporal_barriers(m);
    EXPECT_EQ(second.inserted, 0u);
}

TEST(TemporalBarriers, UnitDelayAlreadyBreaksLoop) {
    simulink::Model m("ok");
    Block& sum = m.root().add_block("sum", BlockType::Sum);
    Block& delay = m.root().add_block("z", BlockType::UnitDelay);
    Block& c = m.root().add_block("c", BlockType::Constant);
    m.root().add_line({&c, 1}, {&sum, 1});
    m.root().add_line({&sum, 1}, {&delay, 1});
    m.root().add_line({&delay, 1}, {&sum, 2});
    EXPECT_FALSE(has_combinational_cycle(m));
    EXPECT_EQ(insert_temporal_barriers(m).inserted, 0u);
}

TEST(TemporalBarriers, ParallelPathsThroughSubsystemAreNotCycles) {
    // in1 → sub.in1 → sub.out1 → ... and a separate in2/out2 path back:
    // only a *combinational* in→out pair closes a loop.
    simulink::Model m("sub");
    Block& sub = m.root().add_subsystem("S");
    sub.set_ports(2, 2);
    Block& i1 = sub.system()->add_block("i1", BlockType::Inport);
    i1.set_parameter("Port", "1");
    Block& i2 = sub.system()->add_block("i2", BlockType::Inport);
    i2.set_parameter("Port", "2");
    Block& o1 = sub.system()->add_block("o1", BlockType::Outport);
    o1.set_parameter("Port", "1");
    Block& o2 = sub.system()->add_block("o2", BlockType::Outport);
    o2.set_parameter("Port", "2");
    // Inside: in1→out1 direct, in2→delay→out2 (state-broken).
    Block& z = sub.system()->add_block("z", BlockType::UnitDelay);
    sub.system()->add_line({&i1, 1}, {&o1, 1});
    sub.system()->add_line({&i2, 1}, {&z, 1});
    sub.system()->add_line({&z, 1}, {&o2, 1});
    // Outside: out2 feeds in2 — through the *delayed* path only.
    Block& g = m.root().add_block("g", BlockType::Gain);
    Block& c = m.root().add_block("c", BlockType::Constant);
    m.root().add_line({&c, 1}, {&sub, 1});
    m.root().add_line({&sub, 2}, {&g, 1});
    m.root().add_line({&g, 1}, {&sub, 2});
    EXPECT_FALSE(has_combinational_cycle(m));
    EXPECT_EQ(insert_temporal_barriers(m).inserted, 0u);
}

TEST(TemporalBarriers, CycleThroughSubsystemDetected) {
    // As above but the feedback goes through the *combinational* pair.
    simulink::Model m("sub2");
    Block& sub = m.root().add_subsystem("S");
    sub.set_ports(1, 1);
    Block& i1 = sub.system()->add_block("i1", BlockType::Inport);
    i1.set_parameter("Port", "1");
    Block& o1 = sub.system()->add_block("o1", BlockType::Outport);
    o1.set_parameter("Port", "1");
    sub.system()->add_line({&i1, 1}, {&o1, 1});
    Block& g = m.root().add_block("g", BlockType::Gain);
    m.root().add_line({&sub, 1}, {&g, 1});
    m.root().add_line({&g, 1}, {&sub, 1});
    EXPECT_TRUE(has_combinational_cycle(m));
    DelayReport report = insert_temporal_barriers(m);
    EXPECT_EQ(report.inserted, 1u);
    EXPECT_FALSE(has_combinational_cycle(m));
}

TEST(TemporalBarriers, BranchedLineOnlyCutsTheLoopingArm) {
    simulink::Model m("branch");
    Block& sum = m.root().add_block("sum", BlockType::Sum);
    Block& scope = m.root().add_block("scope", BlockType::Scope);
    Block& g = m.root().add_block("g", BlockType::Gain);
    Block& c = m.root().add_block("c", BlockType::Constant);
    m.root().add_line({&c, 1}, {&sum, 1});
    m.root().add_line({&sum, 1}, {&g, 1});
    m.root().add_line({&sum, 1}, {&scope, 1});  // branch off the loop
    m.root().add_line({&g, 1}, {&sum, 2});
    insert_temporal_barriers(m);
    EXPECT_FALSE(has_combinational_cycle(m));
    // The scope branch still sees the undelayed sum output.
    const simulink::Line* into_scope = m.root().line_into({&scope, 1});
    ASSERT_NE(into_scope, nullptr);
    EXPECT_EQ(into_scope->source().block->name(), "sum");
}

TEST(TemporalBarriers, CraneLoopBrokenAtCpuLevel) {
    MapperReport report;
    simulink::Model caam = map_to_caam(cases::crane_model(), {}, &report);
    EXPECT_GE(report.delays.inserted, 1u);
    EXPECT_FALSE(has_combinational_cycle(caam));
    // §5.1: the delay lives inside the (single) CPU, breaking the
    // T1→T2→T3→T1 loop through the SWFIFO channels.
    Block* cpu1 = simulink::cpu_subsystems(caam)[0];
    EXPECT_FALSE(cpu1->system()->blocks_of(BlockType::UnitDelay).empty());
}

simulink::Model gain_ring(int size) {
    simulink::Model m("ring");
    std::vector<Block*> gains;
    for (int i = 0; i < size; ++i)
        gains.push_back(
            &m.root().add_block("g" + std::to_string(i), BlockType::Gain));
    for (int i = 0; i < size; ++i)
        m.root().add_line({gains[i], 1}, {gains[(i + 1) % size], 1});
    return m;
}

/// A Gain at the root feeding a chain of `depth` nested SubSystems whose
/// innermost Gain feeds back out: one combinational loop through every
/// level. The destructor tears the nest down from the inside, so it does
/// not recurse once per level either.
struct DeepNest {
    explicit DeepNest(int depth) {
        Block& g = model.root().add_block("g", BlockType::Gain);
        System* sys = &model.root();
        for (int level = 0; level < depth; ++level) {
            Block& sub = sys->add_subsystem("s" + std::to_string(level));
            sub.set_ports(1, 1);
            if (!levels.empty()) {
                sys->add_line({sys->find_block("in"), 1}, {&sub, 1});
                sys->add_line({&sub, 1}, {sys->find_block("out"), 1});
            } else {
                sys->add_line({&g, 1}, {&sub, 1});
                sys->add_line({&sub, 1}, {&g, 1});
            }
            levels.emplace_back(sys, &sub);
            sys = sub.system();
            sys->add_block("in", BlockType::Inport).set_parameter("Port", "1");
            sys->add_block("out", BlockType::Outport).set_parameter("Port", "1");
        }
        Block& inner = sys->add_block("k", BlockType::Gain);
        sys->add_line({sys->find_block("in"), 1}, {&inner, 1});
        sys->add_line({&inner, 1}, {sys->find_block("out"), 1});
    }
    ~DeepNest() {
        for (auto it = levels.rbegin(); it != levels.rend(); ++it)
            it->first->remove_block(*it->second);
    }
    DeepNest(const DeepNest&) = delete;
    DeepNest& operator=(const DeepNest&) = delete;

    simulink::Model model{"nest"};
    std::vector<std::pair<System*, Block*>> levels;
};

TEST(TemporalBarriers, DeepRingNeedsNoDeepStack) {
    // A ring of 5,000 Gain blocks is one combinational path 10,000 atoms
    // long. The cycle search must walk it on a 1 MiB stack.
    simulink::Model m = gain_ring(5000);
    std::size_t inserted = 0;
    bool cycle_left = true;
    ASSERT_TRUE(run_with_stack(1u << 20, [&] {
        inserted = insert_temporal_barriers(m).inserted;
        cycle_left = has_combinational_cycle(m);
    }));
    EXPECT_EQ(inserted, 1u);
    EXPECT_FALSE(cycle_left);
}

TEST(TemporalBarriers, DeepNestingNeedsNoDeepStack) {
    // 20,000 nesting levels: both passes visit the nesting bottom-up on a
    // 1 MiB stack; one call frame per level would overflow it.
    DeepNest nest(20000);
    simulink::Model& m = nest.model;
    std::size_t inserted = 0;
    bool cycle_before = false;
    bool cycle_left = true;
    ASSERT_TRUE(run_with_stack(1u << 20, [&] {
        cycle_before = has_combinational_cycle(m);
        inserted = insert_temporal_barriers(m).inserted;
        cycle_left = has_combinational_cycle(m);
    }));
    EXPECT_TRUE(cycle_before);
    EXPECT_EQ(inserted, 1u);
    EXPECT_FALSE(cycle_left);
    EXPECT_FALSE(m.root().blocks_of(BlockType::UnitDelay).empty());
}

simulink::Model loop_through_unnumbered_ports() {
    // sum → S{in → g → out} → sum, where neither boundary block sets
    // `Port`: Simulink's default makes both port 1, so this is a loop.
    simulink::Model m("noport");
    System& root = m.root();
    Block& c = root.add_block("c", BlockType::Constant);
    Block& sum = root.add_block("sum", BlockType::Sum);
    Block& sub = root.add_subsystem("S");
    sub.set_ports(1, 1);
    System& body = *sub.system();
    Block& in = body.add_block("in", BlockType::Inport);
    Block& g = body.add_block("g", BlockType::Gain);
    Block& out = body.add_block("out", BlockType::Outport);
    body.add_line({&in, 1}, {&g, 1});
    body.add_line({&g, 1}, {&out, 1});
    Block& o = root.add_block("o", BlockType::Outport);
    root.add_line({&c, 1}, {&sum, 1});
    root.add_line({&sum, 1}, {&sub, 1});
    root.add_line({&sub, 1}, {&sum, 2});
    root.add_line({&sum, 1}, {&o, 1});
    return m;
}

TEST(TemporalBarriers, MissingPortIsPortOne) {
    simulink::Model m = loop_through_unnumbered_ports();
    EXPECT_TRUE(has_combinational_cycle(m));
    DelayReport report = insert_temporal_barriers(m);
    EXPECT_EQ(report.inserted, 1u);
    EXPECT_FALSE(has_combinational_cycle(m));
    sim::SFunctionRegistry registry;
    EXPECT_NO_THROW(sim::Simulator(m, registry));
}

/// The message of the std::invalid_argument `body` throws, or "" if none.
template <class Body>
std::string invalid_argument_of(Body&& body) {
    try {
        body();
    } catch (const std::invalid_argument& e) {
        return e.what();
    }
    return "";
}

TEST(TemporalBarriers, NonIntegerPortNamesBlockAndValue) {
    simulink::Model m = loop_through_unnumbered_ports();
    m.root().find_block("S")->system()->find_block("in")->set_parameter("Port",
                                                                        "one");
    const std::string what =
        invalid_argument_of([&] { insert_temporal_barriers(m); });
    EXPECT_NE(what.find("'S/in'"), std::string::npos) << what;
    EXPECT_NE(what.find("'one'"), std::string::npos) << what;
}

TEST(ChannelInference, NonIntegerPortNamesBlockAndValue) {
    // Corrupt the Port of a thread's <<IO>> boundary block between the
    // mapping and channel inference.
    const uml::Model model = cases::didactic_model();
    MapperOptions options;
    options.infer_channels = false;
    options.insert_delays = false;
    simulink::Model caam = map_to_caam(model, options);
    Block* boundary = nullptr;
    for (Block* cpu : simulink::cpu_subsystems(caam))
        for (Block* tss : simulink::thread_subsystems(*cpu))
            for (Block* b : tss->system()->blocks())
                if (const std::string* kind = b->find_parameter("CommKind");
                    !boundary && kind && *kind != kCommKindChannel)
                    boundary = b;
    ASSERT_NE(boundary, nullptr);
    boundary->set_parameter("Port", "2x");
    const std::string what = invalid_argument_of(
        [&] { infer_channels(caam, analyze_communication(model)); });
    EXPECT_NE(what.find("/" + boundary->name() + "'"), std::string::npos)
        << what;
    EXPECT_NE(what.find("'2x'"), std::string::npos) << what;
}

// --- reference oracle: the per-Inport DFS and the std::map cycle search --------

namespace reference {

struct Atom {
    const Block* block = nullptr;
    int port = 1;
    bool is_output = false;

    friend auto operator<=>(const Atom&, const Atom&) = default;
};

struct Dep {
    Atom to;
    const Line* line = nullptr;
    PortRef line_dst;
};

/// The cycle analysis before the reach pass: one DFS and one Outport scan
/// per inner Inport, atoms keyed in ordered maps, a fresh dependency list
/// per visit, and a missing `Port` read as 0.
class CycleAnalyzer {
public:
    const std::vector<std::vector<bool>>& subsystem_reach(const Block& sub) {
        auto it = reach_memo_.find(&sub);
        if (it != reach_memo_.end()) return it->second;
        const System& sys = *sub.system();
        std::vector<std::vector<bool>> table(
            static_cast<std::size_t>(sub.input_count()) + 1,
            std::vector<bool>(static_cast<std::size_t>(sub.output_count()) + 1,
                              false));
        for (const Block* b : sys.blocks()) {
            if (b->type() != BlockType::Inport) continue;
            int i = std::stoi(b->parameter_or("Port", "0"));
            if (i <= 0 || i > sub.input_count()) continue;
            std::set<Atom> visited;
            std::vector<Atom> stack{{b, 1, true}};
            while (!stack.empty()) {
                Atom a = stack.back();
                stack.pop_back();
                if (!visited.insert(a).second) continue;
                for (const Dep& d : dependencies(a)) stack.push_back(d.to);
            }
            for (const Block* o : sys.blocks()) {
                if (o->type() != BlockType::Outport) continue;
                int j = std::stoi(o->parameter_or("Port", "0"));
                if (j <= 0 || j > sub.output_count()) continue;
                if (visited.count({o, 1, false}) != 0) table[i][j] = true;
            }
        }
        return reach_memo_.emplace(&sub, std::move(table)).first->second;
    }

    std::vector<Dep> dependencies(const Atom& atom) {
        std::vector<Dep> out;
        if (atom.is_output) {
            if (const Line* line = atom.block->line_from(atom.port)) {
                for (const PortRef& dst : line->destinations())
                    out.push_back({{dst.block, dst.port, false}, line, dst});
            }
            return out;
        }
        const Block& b = *atom.block;
        switch (b.type()) {
            case BlockType::UnitDelay:
            case BlockType::Inport:
            case BlockType::Outport:
            case BlockType::Scope:
                break;
            case BlockType::SubSystem: {
                const auto& table = subsystem_reach(b);
                for (int j = 1; j <= b.output_count(); ++j)
                    if (table[static_cast<std::size_t>(atom.port)]
                             [static_cast<std::size_t>(j)])
                        out.push_back({{&b, j, true}, nullptr, {}});
                break;
            }
            default:
                for (int j = 1; j <= b.output_count(); ++j)
                    out.push_back({{&b, j, true}, nullptr, {}});
                break;
        }
        return out;
    }

    std::optional<PortRef> find_cycle(const System& sys) {
        std::map<Atom, int> color;
        std::vector<std::pair<Atom, Dep>> path;
        struct Frame {
            Atom atom;
            std::vector<Dep> deps;
            std::size_t next = 0;
        };
        std::vector<Frame> stack;
        auto enter = [&](const Atom& a) {
            color[a] = 1;
            stack.push_back({a, dependencies(a)});
        };
        for (const Block* b : sys.blocks()) {
            for (int p = 1; p <= b->output_count(); ++p) {
                Atom root{b, p, true};
                if (color[root] != 0) continue;
                path.clear();
                enter(root);
                while (!stack.empty()) {
                    Frame& top = stack.back();
                    if (top.next == top.deps.size()) {
                        color[top.atom] = 2;
                        stack.pop_back();
                        if (!stack.empty()) path.pop_back();
                        continue;
                    }
                    const Dep d = top.deps[top.next++];
                    int c = color[d.to];
                    if (c == 1) {
                        if (d.line) return d.line_dst;
                        for (auto it = path.rbegin(); it != path.rend(); ++it) {
                            if (it->first == d.to) break;
                            if (it->second.line) return it->second.line_dst;
                        }
                        throw std::logic_error(
                            "combinational cycle without any line edge");
                    }
                    if (c == 0) {
                        path.emplace_back(d.to, d);
                        enter(d.to);
                    }
                }
            }
        }
        return std::nullopt;
    }

private:
    std::map<const Block*, std::vector<std::vector<bool>>> reach_memo_;
};

template <class SystemT>
std::vector<SystemT*> bottom_up(SystemT& root) {
    std::vector<SystemT*> order;
    std::vector<SystemT*> stack{&root};
    while (!stack.empty()) {
        SystemT* sys = stack.back();
        stack.pop_back();
        order.push_back(sys);
        for (auto* b : sys->blocks())
            if (SystemT* child = b->system()) stack.push_back(child);
    }
    std::reverse(order.begin(), order.end());
    return order;
}

/// The restart-after-each-cut loop.
DelayReport insert_temporal_barriers(simulink::Model& model) {
    DelayReport report;
    CycleAnalyzer analyzer;
    for (System* sys : bottom_up(model.root())) {
        while (auto dst = analyzer.find_cycle(*sys)) {
            Line& line = *sys->line_into(*dst);
            PortRef src = line.source();
            std::string signal = line.name();
            sys->disconnect(line, *dst);
            Block& delay =
                sys->add_block(sys->unique_name("Delay"), BlockType::UnitDelay);
            delay.set_parameter("SampleTime", "-1");
            sys->add_line(src, {&delay, 1}, signal);
            sys->add_line({&delay, 1}, *dst, signal);
            ++report.inserted;
            report.locations.push_back(sys->name() + ": " + src.block->name() +
                                       "." + std::to_string(src.port) + " -> " +
                                       dst->block->name() + "." +
                                       std::to_string(dst->port));
        }
    }
    return report;
}

bool has_combinational_cycle(const simulink::Model& model) {
    CycleAnalyzer analyzer;
    for (const System* sys : bottom_up(model.root()))
        if (analyzer.find_cycle(*sys)) return true;
    return false;
}

}  // namespace reference

/// Runs both analyses on two identically built copies of one model: the
/// same cycle answer before, the same cuts in the same order, and no cycle
/// after. Returns the number of cuts.
std::size_t expect_matches_reference(simulink::Model ours, simulink::Model theirs,
                                     const std::string& label) {
    EXPECT_EQ(has_combinational_cycle(ours),
              reference::has_combinational_cycle(theirs))
        << label;
    const DelayReport got = insert_temporal_barriers(ours);
    const DelayReport want = reference::insert_temporal_barriers(theirs);
    EXPECT_EQ(got.inserted, want.inserted) << label;
    EXPECT_EQ(got.locations, want.locations) << label;
    EXPECT_FALSE(has_combinational_cycle(ours)) << label;
    return got.inserted;
}

/// Fills `sys` with a seeded random body: boundary blocks for `inputs`
/// and `outputs` ports created in shuffled order among the other blocks,
/// one extra Inport and Outport whose Port repeats another's, falls out
/// of range or is 0, nested SubSystems down to `depth`, and dense random
/// wiring, so most systems need several cuts.
void fill_random(System& sys, std::mt19937& rng, int depth, int inputs,
                 int outputs) {
    auto pick = [&](std::size_t n) {
        return static_cast<int>(rng() % static_cast<unsigned>(n));
    };
    enum Kind { In, Out, Other };
    std::vector<Kind> kinds(static_cast<std::size_t>(inputs), In);
    kinds.insert(kinds.end(), static_cast<std::size_t>(outputs), Out);
    if (inputs > 0) kinds.push_back(In);
    if (outputs > 0) kinds.push_back(Out);
    kinds.insert(kinds.end(), static_cast<std::size_t>(4 + pick(6)), Other);
    std::shuffle(kinds.begin(), kinds.end(), rng);
    static const BlockType types[] = {
        BlockType::Gain,      BlockType::Sum,         BlockType::Sum,
        BlockType::UnitDelay, BlockType::Scope,       BlockType::Constant,
        BlockType::SFunction, BlockType::CommChannel, BlockType::SubSystem};
    int next_in = 1, next_out = 1;
    for (Kind kind : kinds) {
        const std::string name = "b" + std::to_string(sys.blocks().size());
        if (kind != Other) {
            const bool in = kind == In;
            int& next = in ? next_in : next_out;
            const int count = in ? inputs : outputs;
            const int port =
                next <= count ? next++ : pick(static_cast<std::size_t>(count) + 2);
            sys.add_block(name, in ? BlockType::Inport : BlockType::Outport)
                .set_parameter("Port", std::to_string(port));
            continue;
        }
        BlockType type = types[pick(std::size(types))];
        if (type == BlockType::SubSystem && depth == 0) type = BlockType::Gain;
        Block& b = sys.add_block(name, type);
        if (type == BlockType::SFunction) b.set_ports(pick(3), 1 + pick(2));
        if (type == BlockType::SubSystem) {
            b.set_ports(1 + pick(3), 1 + pick(3));
            fill_random(*b.system(), rng, depth - 1, b.input_count(),
                        b.output_count());
        }
    }
    const auto view = sys.blocks();
    const std::vector<Block*> blocks(view.begin(), view.end());
    for (std::size_t attempt = 0; attempt < 3 * blocks.size(); ++attempt) {
        Block* src = blocks[static_cast<std::size_t>(pick(blocks.size()))];
        Block* dst = blocks[static_cast<std::size_t>(pick(blocks.size()))];
        if (src->output_count() == 0 || dst->input_count() == 0) continue;
        const PortRef to{dst,
                         1 + pick(static_cast<std::size_t>(dst->input_count()))};
        if (sys.line_into(to)) continue;
        sys.add_line({src, 1 + pick(static_cast<std::size_t>(src->output_count()))},
                     to);
    }
}

simulink::Model random_system(unsigned seed) {
    std::mt19937 rng(seed);
    simulink::Model m("rand" + std::to_string(seed));
    fill_random(m.root(), rng, 2, 0, 0);
    return m;
}

TEST(ReferenceOracle, CycleAnalysisMatchesPerInportDfs) {
    MapperOptions no_delays;
    no_delays.insert_delays = false;
    for (const auto& [label, make] :
         std::vector<std::pair<std::string, uml::Model (*)()>>{
             {"crane", cases::crane_model}, {"mixed", cases::mixed_model}})
        EXPECT_GE(expect_matches_reference(map_to_caam(make(), no_delays),
                                           map_to_caam(make(), no_delays), label),
                  1u);
    expect_matches_reference(gain_ring(5000), gain_ring(5000), "ring");
    {
        DeepNest ours(20000), theirs(20000);
        EXPECT_EQ(has_combinational_cycle(ours.model),
                  reference::has_combinational_cycle(theirs.model));
        const DelayReport got = insert_temporal_barriers(ours.model);
        const DelayReport want = reference::insert_temporal_barriers(theirs.model);
        EXPECT_EQ(got.inserted, want.inserted);
        EXPECT_EQ(got.locations, want.locations);
    }
    std::size_t multi_cut = 0;
    for (unsigned seed = 1; seed <= 60; ++seed)
        if (expect_matches_reference(random_system(seed), random_system(seed),
                                     "seed " + std::to_string(seed)) > 1)
            ++multi_cut;
    EXPECT_GE(multi_cut, 20u);  // many random systems need several cuts
}

TEST(TemporalBarriers, AcyclicModelUntouched) {
    MapperReport report;
    simulink::Model caam = map_to_caam(cases::didactic_model(), {}, &report);
    EXPECT_EQ(report.delays.inserted, 0u);
}

TEST(ChannelInference, SameNamedIoVarsOnOneCpuDoNotCollide) {
    // Two threads on the same CPU both read an <<IO>> variable called
    // "sensor": the CPU boundary must grow two distinct ports.
    uml::ModelBuilder b("collide");
    b.thread("A");
    b.thread("B");
    b.platform();
    b.iodevice("Dev");
    auto sd = b.seq("sd");
    sd.message("A", "Dev", "getSensor").result("sensor");
    sd.message("A", "Platform", "gain").arg("sensor").result("ya");
    sd.message("A", "Dev", "setYa").arg("ya");
    sd.message("B", "Dev", "getSensor").result("sensor");
    sd.message("B", "Platform", "gain").arg("sensor").result("yb");
    sd.message("B", "Dev", "setYb").arg("yb");
    b.cpu("CPU1");
    b.deploy("A", "CPU1").deploy("B", "CPU1");
    MapperReport report;
    simulink::Model caam = map_to_caam(b.take(), {}, &report);
    EXPECT_EQ(report.channels.system_inputs, 2u);
    EXPECT_EQ(report.channels.system_outputs, 2u);
    auto problems = simulink::validate_caam(caam);
    EXPECT_TRUE(problems.empty()) << problems.front();
}

TEST(ChannelInference, ChainedForwardingAcrossThreeCpus) {
    // A → B → C where B just forwards: exercises the inport→outport
    // pass-through path and double boundary growth.
    uml::ModelBuilder b("chain3");
    b.thread("A");
    b.thread("B");
    b.thread("C");
    b.platform();
    b.iodevice("Dev");
    auto sd = b.seq("sd");
    sd.message("A", "Platform", "gain").arg("1.0").result("x");
    sd.message("A", "B", "SetX").arg("x");
    sd.message("B", "C", "SetX").arg("x");  // pass-through
    sd.message("C", "Platform", "gain").arg("x").result("y");
    sd.message("C", "Dev", "setY").arg("y");
    b.cpu("P0");
    b.cpu("P1");
    b.cpu("P2");
    b.deploy("A", "P0").deploy("B", "P1").deploy("C", "P2");
    MapperReport report;
    simulink::Model caam = map_to_caam(b.take(), {}, &report);
    EXPECT_EQ(report.channels.inter_channels, 2u);
    EXPECT_TRUE(simulink::validate_caam(caam).empty());

    // And it executes: the value flows through both GFIFOs.
    sim::SFunctionRegistry registry;
    sim::Simulator simulator(caam, registry);
    sim::SimResult r = simulator.run(3);
    EXPECT_EQ(r.channel_traffic.at("GFIFO"), 6u);
    EXPECT_DOUBLE_EQ(r.outputs.at("y").back(), 1.0);
}

TEST(ChannelInference, ContendedConsumerPortWarnsInsteadOfCrashing) {
    // Two producers of the same variable for one consumer (E7 violation);
    // with enforcement off, inference must degrade gracefully.
    uml::ModelBuilder b("contend");
    b.thread("A");
    b.thread("B");
    b.thread("C");
    b.platform();
    auto sd = b.seq("sd");
    sd.message("A", "Platform", "gain").arg("1.0").result("x");
    sd.message("B", "Platform", "gain").arg("2.0").result("x");
    sd.message("A", "C", "SetX").arg("x");
    sd.message("B", "C", "SetX").arg("x");
    sd.message("C", "Platform", "gain").arg("x").result("y");
    b.cpu("CPU1");
    b.deploy("A", "CPU1").deploy("B", "CPU1").deploy("C", "CPU1");
    MapperOptions options;
    options.enforce_wellformedness = false;
    MapperReport report;
    simulink::Model caam = map_to_caam(b.take(), options, &report);
    bool warned = false;
    for (const std::string& w : report.warnings())
        if (w.find("already driven") != std::string::npos) warned = true;
    EXPECT_TRUE(warned);
    // Exactly one of the two channels wired.
    EXPECT_EQ(report.channels.intra_channels, 1u);
    (void)caam;
}

}  // namespace
