#include "core/delays.hpp"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <vector>

namespace uhcg::core {

using simulink::Block;
using simulink::BlockType;
using simulink::Line;
using simulink::PortRef;
using simulink::System;

namespace {

/// One vertex of the dependency graph: a specific input or output port.
struct Atom {
    const Block* block = nullptr;
    int port = 1;
    bool is_output = false;

    friend auto operator<=>(const Atom&, const Atom&) = default;
};

/// An edge of the dependency graph. Line edges remember the destination
/// port so a UnitDelay can be spliced into the line feeding it.
struct Dep {
    Atom to;
    const Line* line = nullptr;  // nullptr for intra-block dependencies
    PortRef line_dst;            // valid when line != nullptr
};

class CycleAnalyzer {
public:
    /// Combinational in→out reachability of a subsystem block, memoized.
    const std::vector<std::vector<bool>>& subsystem_reach(const Block& sub) {
        auto it = reach_memo_.find(&sub);
        if (it != reach_memo_.end()) return it->second;
        const System& sys = *sub.system();
        std::vector<std::vector<bool>> table(
            static_cast<std::size_t>(sub.input_count()) + 1,
            std::vector<bool>(static_cast<std::size_t>(sub.output_count()) + 1,
                              false));
        // For each inner Inport (Port=i), DFS the atom graph; reached inner
        // Outport (Port=j) ⇒ in i → out j is combinational.
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

    /// Outgoing dependency edges of an atom within its system.
    std::vector<Dep> dependencies(const Atom& atom) {
        std::vector<Dep> out;
        if (atom.is_output) {
            // Output port → every input it drives, via lines.
            if (const Line* line = atom.block->line_from(atom.port)) {
                for (const PortRef& dst : line->destinations())
                    out.push_back({{dst.block, dst.port, false}, line, dst});
            }
            return out;
        }
        // Input port → block outputs it combinationally feeds.
        const Block& b = *atom.block;
        switch (b.type()) {
            case BlockType::UnitDelay:
            case BlockType::Inport:
            case BlockType::Outport:
            case BlockType::Scope:
                break;  // no combinational propagation
            case BlockType::SubSystem: {
                const auto& table = subsystem_reach(b);
                for (int j = 1; j <= b.output_count(); ++j)
                    if (table[static_cast<std::size_t>(atom.port)]
                             [static_cast<std::size_t>(j)])
                        out.push_back({{&b, j, true}, nullptr, {}});
                break;
            }
            default:
                // Product, Sum, Gain, S-Function, CommChannel, Constant:
                // every input feeds every output within the step.
                for (int j = 1; j <= b.output_count(); ++j)
                    out.push_back({{&b, j, true}, nullptr, {}});
                break;
        }
        return out;
    }

    /// Finds one combinational cycle in `sys`; returns the port to splice at
    /// (the "data link where the loop is detected"). nullopt = acyclic.
    /// Depth-first with an explicit stack of frames, so the depth of the
    /// longest combinational chain never reaches the call stack; edges are
    /// taken in dependency order, the order a recursive walk would use.
    std::optional<PortRef> find_cycle(const System& sys) {
        std::map<Atom, int> color;  // 0 white, 1 gray, 2 black
        std::vector<std::pair<Atom, Dep>> path;  // (atom, edge taken into it)
        struct Frame {
            Atom atom;
            std::vector<Dep> deps;
            std::size_t next = 0;  ///< next dependency to examine
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
                        // Back edge: the cycle is d plus the path suffix
                        // from d.to. Cut at the back edge when it is a
                        // line, otherwise at the last line edge on the
                        // suffix.
                        if (d.line) return d.line_dst;
                        for (auto it = path.rbegin(); it != path.rend(); ++it) {
                            // The entry *for* d.to records the edge that
                            // led into the cycle head — not a cycle edge;
                            // stop before considering it.
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

/// Breaks all cycles in one system (children must already be processed).
void break_cycles(System& sys, CycleAnalyzer& analyzer, DelayReport& report) {
    for (;;) {
        auto dst = analyzer.find_cycle(sys);
        if (!dst) return;
        Line& line = *sys.line_into(*dst);
        PortRef src = line.source();
        std::string signal = line.name();

        sys.disconnect(line, *dst);
        Block& delay = sys.add_block(sys.unique_name("Delay"), BlockType::UnitDelay);
        delay.set_parameter("SampleTime", "-1");
        sys.add_line(src, {&delay, 1}, signal);
        sys.add_line({&delay, 1}, *dst, signal);

        ++report.inserted;
        report.locations.push_back(sys.name() + ": " + src.block->name() + "." +
                                   std::to_string(src.port) + " -> " +
                                   dst->block->name() + "." +
                                   std::to_string(dst->port));
    }
}

/// `root` and every system nested in it, children (in block order) before
/// parents: a reversed pre-order, walked without recursion.
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

}  // namespace

DelayReport insert_temporal_barriers(simulink::Model& model) {
    DelayReport report;
    CycleAnalyzer analyzer;
    for (System* sys : bottom_up(model.root())) break_cycles(*sys, analyzer, report);
    return report;
}

bool has_combinational_cycle(const simulink::Model& model) {
    CycleAnalyzer analyzer;
    for (const System* sys : bottom_up(model.root()))
        if (analyzer.find_cycle(*sys)) return true;
    return false;
}

}  // namespace uhcg::core
