#include "core/delays.hpp"

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <unordered_map>
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

    friend bool operator==(const Atom&, const Atom&) = default;
};

/// A depth-first visit of one atom; `next` counts the edges taken out of it.
struct Frame {
    Atom atom;
    int next = 0;
};

enum Color : std::uint8_t { White, Gray, Black };

/// `rows` bitsets of `bits` bits each, stored flat.
struct BitRows {
    BitRows(std::size_t rows, std::size_t bits)
        : words((bits + 63) / 64), data(rows * words) {}
    void set(std::size_t row, std::size_t bit) {
        data[row * words + bit / 64] |= std::uint64_t{1} << (bit % 64);
    }
    bool test(std::size_t row, std::size_t bit) const {
        return (data[row * words + bit / 64] >> (bit % 64)) & 1u;
    }
    /// Row `into` |= row `from` of `src`, which has the same width.
    void merge(std::size_t into, const BitRows& src, std::size_t from) {
        for (std::size_t w = 0; w < words; ++w)
            data[into * words + w] |= src.data[from * words + w];
    }

    std::size_t words;
    std::vector<std::uint64_t> data;
};

class CycleAnalyzer {
public:
    /// The next dependency edge out of `f.atom`, advancing `f`; nullopt once
    /// all are taken. An output feeds the inputs its line drives (a line
    /// edge); an input feeds the outputs of its block it reaches in a step.
    std::optional<Atom> next_dep(Frame& f) const {
        const Block& b = *f.atom.block;
        if (f.atom.is_output) {
            const Line* line = b.line_from(f.atom.port);
            if (!line || f.next == static_cast<int>(line->destinations().size()))
                return std::nullopt;
            const PortRef& dst =
                line->destinations()[static_cast<std::size_t>(f.next++)];
            return Atom{dst.block, dst.port, false};
        }
        switch (b.type()) {
            case BlockType::UnitDelay:
            case BlockType::Inport:
            case BlockType::Outport:
            case BlockType::Scope:
                return std::nullopt;  // no combinational propagation
            case BlockType::SubSystem: {
                // std::out_of_range, a std::logic_error, if the body has not
                // been found acyclic.
                const BitRows& table = reach_.at(&b);
                while (f.next < b.output_count())
                    if (table.test(static_cast<std::size_t>(f.atom.port - 1),
                                   static_cast<std::size_t>(f.next++)))
                        return Atom{&b, f.next, true};
                return std::nullopt;
            }
            default:
                // Product, Sum, Gain, S-Function, CommChannel, Constant:
                // every input feeds every output within the step.
                if (f.next == b.output_count()) return std::nullopt;
                return Atom{&b, ++f.next, true};
        }
    }

    /// Finds one combinational cycle in `sys`; returns the input port to
    /// splice at (the "data link where the loop is detected"). nullopt =
    /// acyclic. Depth-first over dense atom ids (each block's inputs, then
    /// its outputs) with an explicit stack, taking edges in dependency
    /// order. The post-order also gives each atom the set of `sys`'s
    /// Outports it reaches: an acyclic subsystem body so yields the in→out
    /// reach table its parent's search reads. Both passes visit children
    /// before parents and stop at a cyclic one, so the table always exists.
    std::optional<Atom> find_cycle(const System& sys) {
        std::unordered_map<const Block*, std::size_t> first;
        std::size_t atoms = 0;
        for (const Block* b : sys.blocks()) {
            first.emplace(b, atoms);
            atoms += static_cast<std::size_t>(b->input_count() + b->output_count());
        }
        auto id = [&](const Atom& a) {
            return first.at(a.block) +
                   static_cast<std::size_t>(
                       (a.is_output ? a.block->input_count() : 0) + a.port - 1);
        };
        const Block* owner = sys.owner_block();
        const int outputs = owner ? owner->output_count() : 0;
        auto as_size = [](int n) { return static_cast<std::size_t>(n); };
        BitRows reaches(atoms, as_size(outputs));
        for (const Block* b : sys.blocks())
            if (owner && b->type() == BlockType::Outport)
                if (const int j = b->port_number(); j >= 1 && j <= outputs)
                    reaches.set(id({b, 1, false}), as_size(j - 1));

        std::vector<Color> color(atoms, White);
        std::vector<Frame> stack;
        for (const Block* b : sys.blocks()) {
            for (int p = 1; p <= b->output_count(); ++p) {
                if (color[id({b, p, true})] != White) continue;
                color[id({b, p, true})] = Gray;
                stack.push_back({{b, p, true}});
                while (!stack.empty()) {
                    const std::size_t from = id(stack.back().atom);
                    const std::optional<Atom> to = next_dep(stack.back());
                    if (!to) {
                        color[from] = Black;
                        stack.pop_back();
                        if (!stack.empty())
                            reaches.merge(id(stack.back().atom), reaches, from);
                        continue;
                    }
                    const std::size_t t = id(*to);
                    if (color[t] == Gray) {
                        // Back edge: the cycle is it plus the stack suffix
                        // from *to. Cut at the back edge when it is a line
                        // edge (into an input), otherwise at the last line
                        // edge on the suffix; the edge into *to is not on
                        // the cycle.
                        if (!to->is_output) return to;
                        for (auto it = stack.rbegin(); it->atom != *to; ++it)
                            if (!it->atom.is_output) return it->atom;
                        throw std::logic_error(
                            "combinational cycle without any line edge");
                    }
                    if (color[t] == Black) {
                        reaches.merge(from, reaches, t);
                    } else {
                        color[t] = Gray;
                        stack.push_back({*to});
                    }
                }
            }
        }
        if (owner) {
            const int inputs = owner->input_count();
            BitRows table(as_size(inputs), as_size(outputs));
            for (const Block* b : sys.blocks())
                if (b->type() == BlockType::Inport)
                    if (const int i = b->port_number(); i >= 1 && i <= inputs)
                        table.merge(as_size(i - 1), reaches, id({b, 1, true}));
            reach_.insert_or_assign(owner, std::move(table));
        }
        return std::nullopt;
    }

private:
    /// Per subsystem block: input i reaches output j when bit j-1 of row
    /// i-1 is set.
    std::unordered_map<const Block*, BitRows> reach_;
};

/// Breaks all cycles in one system (children must already be processed).
void break_cycles(System& sys, CycleAnalyzer& analyzer, DelayReport& report) {
    while (const std::optional<Atom> cut = analyzer.find_cycle(sys)) {
        // find_cycle reads `sys` as const; look the block up for writing.
        const PortRef dst{sys.find_block(cut->block->name()), cut->port};
        Line& line = *sys.line_into(dst);
        PortRef src = line.source();
        std::string signal = line.name();

        sys.disconnect(line, dst);
        Block& delay = sys.add_block(sys.unique_name("Delay"), BlockType::UnitDelay);
        delay.set_parameter("SampleTime", "-1");
        sys.add_line(src, {&delay, 1}, signal);
        sys.add_line({&delay, 1}, dst, signal);

        ++report.inserted;
        report.locations.push_back(sys.name() + ": " + src.block->name() + "." +
                                   std::to_string(src.port) + " -> " +
                                   dst.block->name() + "." +
                                   std::to_string(dst.port));
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
