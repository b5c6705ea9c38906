#include "sim/engine.hpp"

#include <algorithm>
#include <sstream>

#include "obs/obs.hpp"
#include "taskgraph/graph.hpp"

namespace uhcg::sim {

using simulink::Block;
using simulink::BlockType;
using simulink::Line;
using simulink::PortRef;
using simulink::System;

void SFunctionRegistry::register_function(std::string name, SFunction fn,
                                          std::size_t state_size) {
    entries_[std::move(name)] = {std::move(fn), state_size};
}

bool SFunctionRegistry::contains(const std::string& name) const {
    return entries_.count(name) != 0;
}

const SFunction& SFunctionRegistry::function(const std::string& name) const {
    auto it = entries_.find(name);
    if (it == entries_.end())
        throw std::runtime_error("no S-function registered for '" + name + "'");
    return it->second.fn;
}

std::size_t SFunctionRegistry::state_size(const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? 0 : it->second.state_size;
}

DeadlockError::DeadlockError(std::vector<std::string> cycle,
                             std::vector<CycleEdge> edges)
    : std::runtime_error([&cycle] {
          std::ostringstream msg;
          msg << "combinational cycle — dataflow deadlock through:";
          for (const auto& b : cycle) msg << ' ' << b;
          return msg.str();
      }()),
      cycle_(std::move(cycle)),
      edges_(std::move(edges)) {}

namespace {

bool is_marker(const Block& b, const System& root) {
    // Inport/Outport blocks below the root are hierarchy markers; at the
    // root they are the model's external interface.
    if (b.type() != BlockType::Inport && b.type() != BlockType::Outport)
        return false;
    return b.parent() != &root;
}

/// Numeric block parameters parsed with context: a corrupt model file must
/// name the block and parameter at fault, not die in a bare std::stod.
double param_double(const Block& b, const char* name, const char* fallback) {
    std::string v = b.parameter_or(name, fallback);
    try {
        std::size_t used = 0;
        double parsed = std::stod(v, &used);
        if (used != v.size()) throw std::invalid_argument(v);
        return parsed;
    } catch (const std::exception&) {
        throw std::runtime_error("block '" + b.path() + "' parameter '" +
                                 name + "' is not a number (got '" + v + "')");
    }
}

}  // namespace

/// Flattened network: atomic blocks, resolved drivers, static schedule.
struct Simulator::Net {
    struct AtomicBlock {
        const Block* block = nullptr;
        std::string path;
        // Resolved driver of each input: index into values_ (>=0), external
        // input (-2 - external index), or unconnected (-1, reads 0).
        std::vector<int> input_slots;
        int first_output_slot = 0;
        std::vector<double> state;  // UnitDelay / S-function state
        const SFunction* sfun = nullptr;
    };

    const simulink::Model* model = nullptr;
    std::vector<AtomicBlock> blocks;         // schedule order
    std::vector<std::string> external_names; // root Inport names
    std::map<std::string, int> external_index;
    std::size_t value_count = 0;
    std::vector<std::size_t> delay_indices;  // blocks[] indices of UnitDelays
    std::vector<std::size_t> recorder_indices;  // root Outports + Scopes

    /// Resolved atomic driver of an output endpoint, or external input.
    struct Driver {
        int slot = -1;  // semantics as AtomicBlock::input_slots
    };

    std::map<const Block*, int> first_slot_of;  // atomic block → output slot
    /// (subsystem, Port) → inner Outport; the first in block order wins.
    std::map<std::pair<const Block*, int>, const Block*> outport_of;

    Driver resolve_output(PortRef src, const System& root) {
        Block& b = *src.block;
        if (b.type() == BlockType::SubSystem) {
            // Dive: the inner Outport with Port == src.port.
            auto inner = outport_of.find({&b, src.port});
            if (inner == outport_of.end())
                throw std::runtime_error("subsystem '" + b.path() +
                                         "' lacks Outport " +
                                         std::to_string(src.port));
            const Line* line = inner->second->line_into(1);
            if (!line)
                throw std::runtime_error("undriven Outport '" +
                                         inner->second->path() + "'");
            return resolve_output(line->source(), root);
        }
        if (b.type() == BlockType::Inport && is_marker(b, root)) {
            // Surface: the owning subsystem's input port in the parent.
            Block* owner = b.parent()->owner_block();
            const Line* line = owner->line_into(b.port_number());
            if (!line)
                throw std::runtime_error("undriven subsystem input " +
                                         std::to_string(b.port_number()) + " of '" +
                                         owner->path() + "'");
            return resolve_output(line->source(), root);
        }
        if (b.type() == BlockType::Inport) {
            // Root Inport: external input.
            std::string name = b.parameter_or("Var", b.name());
            auto [it, inserted] =
                external_index.emplace(name, static_cast<int>(external_names.size()));
            if (inserted) external_names.push_back(name);
            return {-2 - it->second};
        }
        auto slot = first_slot_of.find(&b);
        if (slot == first_slot_of.end())
            throw std::logic_error("driver block '" + b.path() +
                                   "' was not collected");
        return {slot->second + src.port - 1};
    }
};

Simulator::Simulator(const simulink::Model& model,
                     const SFunctionRegistry& registry)
    : net_(std::make_shared<Net>()) {
    Net& net = *net_;
    net.model = &model;
    const System& root = model.root();

    // Pass 1: collect atomic blocks (everything functional, plus root
    // Inports/Outports and Scopes) and assign output value slots; index
    // each subsystem's Outports by port number for the dive.
    std::vector<const Block*> atomics;
    auto collect = [&](const System& sys, auto&& self) -> void {
        for (const Block* b : sys.blocks()) {
            if (b->type() == BlockType::SubSystem) {
                self(*b->system(), self);
                continue;
            }
            if (!is_marker(*b, root))
                atomics.push_back(b);
            else if (b->type() == BlockType::Outport)
                net.outport_of.emplace(
                    std::pair{sys.owner_block(), b->port_number()}, b);
        }
    };
    collect(root, collect);

    for (const Block* b : atomics) {
        net.first_slot_of[b] = static_cast<int>(net.value_count);
        net.value_count += static_cast<std::size_t>(std::max(1, b->output_count()));
    }

    // Pass 2: resolve every atomic input to its driver.
    struct Pending {
        const Block* block;
        std::vector<int> input_slots;
    };
    std::vector<Pending> pending;
    for (const Block* b : atomics) {
        Pending p{b, {}};
        for (int port = 1; port <= b->input_count(); ++port) {
            const Line* line = b->line_into(port);
            if (!line) {
                p.input_slots.push_back(-1);
                continue;
            }
            p.input_slots.push_back(
                net.resolve_output(line->source(), root).slot);
        }
        pending.push_back(std::move(p));
    }

    // Pass 3: topological order of the combinational dependency graph.
    // UnitDelay outputs are state, so they impose no ordering as drivers.
    // Slot → index of the owning atomic block (slots are contiguous per block).
    std::vector<std::size_t> slot_owner(net.value_count);
    for (std::size_t i = 0; i < atomics.size(); ++i) {
        const int first = net.first_slot_of[atomics[i]];
        for (int s = 0; s < std::max(1, atomics[i]->output_count()); ++s)
            slot_owner[static_cast<std::size_t>(first + s)] = i;
    }
    auto driver_of = [&](int slot) -> std::optional<std::size_t> {
        if (slot < 0) return std::nullopt;
        const std::size_t d = slot_owner[static_cast<std::size_t>(slot)];
        if (atomics[d]->type() == BlockType::UnitDelay) return std::nullopt;
        return d;
    };
    std::vector<std::vector<std::size_t>> consumers(atomics.size());
    for (std::size_t i = 0; i < pending.size(); ++i)
        for (int slot : pending[i].input_slots)
            if (auto d = driver_of(slot)) consumers[*d].push_back(i);
    const taskgraph::TopoSort sorted = taskgraph::topological_sort(consumers);
    if (!sorted.stuck.empty()) {
        std::vector<bool> stuck(atomics.size(), false);
        for (std::size_t i : sorted.stuck) stuck[i] = true;
        std::vector<std::string> cycle;
        std::vector<CycleEdge> edges;
        for (std::size_t i : sorted.stuck) {
            cycle.push_back(atomics[i]->path());
            // Edges among the stuck blocks show the actual loop.
            for (int slot : pending[i].input_slots)
                if (auto d = driver_of(slot); d && stuck[*d])
                    edges.push_back(
                        {atomics[*d]->path(), atomics[i]->path()});
        }
        throw DeadlockError(std::move(cycle), std::move(edges));
    }

    // Pass 4: materialize schedule-ordered atomic records.
    for (std::size_t i : sorted.order) {
        const Block* b = atomics[i];
        Net::AtomicBlock rec;
        rec.block = b;
        rec.path = b->path();
        rec.input_slots = pending[i].input_slots;
        rec.first_output_slot = net.first_slot_of[b];
        if (b->type() == BlockType::UnitDelay) {
            rec.state.assign(1, param_double(*b, "InitialCondition", "0"));
            net.delay_indices.push_back(net.blocks.size());
        } else if (b->type() == BlockType::SFunction) {
            std::string fn = b->parameter_or("FunctionName", b->name());
            if (!registry.contains(fn))
                throw std::runtime_error("S-function '" + fn + "' (block '" +
                                         rec.path + "') is not registered");
            rec.sfun = &registry.function(fn);
            rec.state.assign(registry.state_size(fn), 0.0);
        } else if ((b->type() == BlockType::Outport &&
                    b->parent() == &model.root()) ||
                   b->type() == BlockType::Scope) {
            net.recorder_indices.push_back(net.blocks.size());
        }
        net.blocks.push_back(std::move(rec));
    }
}

std::optional<Simulator> Simulator::build(const simulink::Model& model,
                                          const SFunctionRegistry& registry,
                                          diag::DiagnosticEngine& engine) {
    try {
        return Simulator(model, registry);
    } catch (const DeadlockError& e) {
        std::vector<std::string> notes;
        {
            std::ostringstream b;
            b << "blocked block(s):";
            for (const auto& p : e.cycle()) b << ' ' << p;
            notes.push_back(b.str());
        }
        for (const CycleEdge& edge : e.edges())
            notes.push_back("combinational dependency: " + edge.from + " -> " +
                            edge.to);
        notes.push_back(
            "insert a temporal barrier (UnitDelay) on the loop — §4.2.2");
        engine.report(diag::Severity::Error, diag::codes::kSimDeadlock,
                      "model '" + model.name() +
                          "' has a combinational cycle through " +
                          std::to_string(e.cycle().size()) +
                          " block(s) — dataflow deadlock",
                      {}, std::move(notes));
        return std::nullopt;
    } catch (const std::exception& e) {
        engine.report(diag::Severity::Error, diag::codes::kSimStructure,
                      std::string("model '") + model.name() +
                          "' cannot be scheduled: " + e.what());
        return std::nullopt;
    }
}

void Simulator::set_input(const std::string& name, InputSignal signal) {
    inputs_[name] = std::move(signal);
}

std::vector<std::string> Simulator::schedule() const {
    std::vector<std::string> out;
    for (const auto& b : net_->blocks) out.push_back(b.path);
    return out;
}

SimResult Simulator::run() {
    const double step = net_->model->fixed_step;
    auto steps = static_cast<std::size_t>(net_->model->stop_time / step);
    return run(std::max<std::size_t>(steps, 1));
}

SimResult Simulator::run(std::size_t steps, diag::DiagnosticEngine& engine,
                         const WatchdogBudget& budget) {
    // Clamp the request to the budget up front: the sweep is statically
    // scheduled, so bounding the step count bounds all work.
    std::size_t allowed = steps;
    if (budget.max_steps) allowed = std::min(allowed, budget.max_steps);
    if (budget.max_block_evals) {
        std::size_t per_step = std::max<std::size_t>(net_->blocks.size(), 1);
        allowed = std::min(allowed, budget.max_block_evals / per_step);
    }
    SimResult result = run(allowed);
    if (allowed < steps) {
        result.budget_exhausted = true;
        engine.report(
            diag::Severity::Error, diag::codes::kSimWatchdog,
            "simulation of '" + net_->model->name() + "' stopped by watchdog: " +
                std::to_string(steps) + " step(s) requested, budget allows " +
                std::to_string(allowed),
            {},
            {"executed " + std::to_string(result.steps) + " step(s) across " +
             std::to_string(net_->blocks.size()) + " scheduled block(s)"});
    }
    return result;
}

SimResult Simulator::run(std::size_t steps) {
    obs::ObsSpan span("sim.run");
    Net& net = *net_;
    SimResult result;
    std::vector<double> values(net.value_count, 0.0);
    std::vector<double> externals(net.external_names.size(), 0.0);

    auto read = [&](int slot, double fallback = 0.0) {
        if (slot >= 0) return values[static_cast<std::size_t>(slot)];
        if (slot <= -2) return externals[static_cast<std::size_t>(-2 - slot)];
        return fallback;
    };

    const double dt = net.model->fixed_step;
    for (std::size_t k = 0; k < steps; ++k) {
        double t = static_cast<double>(k) * dt;
        result.time.push_back(t);

        for (std::size_t e = 0; e < externals.size(); ++e) {
            auto it = inputs_.find(net.external_names[e]);
            externals[e] = (it != inputs_.end()) ? it->second(t) : 0.0;
        }

        // Delays publish state before the sweep.
        for (std::size_t i : net.delay_indices) {
            auto& d = net.blocks[i];
            values[static_cast<std::size_t>(d.first_output_slot)] = d.state[0];
        }

        for (auto& b : net.blocks) {
            const Block& blk = *b.block;
            double* out = &values[static_cast<std::size_t>(b.first_output_slot)];
            switch (blk.type()) {
                case BlockType::Product: {
                    std::string signs = blk.parameter_or("Inputs", "");
                    double v = 1.0;
                    for (std::size_t i = 0; i < b.input_slots.size(); ++i) {
                        double x = read(b.input_slots[i]);
                        if (i < signs.size() && signs[i] == '/')
                            v /= x;
                        else
                            v *= x;
                    }
                    out[0] = v;
                    break;
                }
                case BlockType::Sum: {
                    std::string signs = blk.parameter_or("Inputs", "");
                    double v = 0.0;
                    for (std::size_t i = 0; i < b.input_slots.size(); ++i) {
                        double x = read(b.input_slots[i]);
                        if (i < signs.size() && signs[i] == '-')
                            v -= x;
                        else
                            v += x;
                    }
                    out[0] = v;
                    break;
                }
                case BlockType::Gain:
                    out[0] = param_double(blk, "Gain", "1") *
                             read(b.input_slots.empty() ? -1 : b.input_slots[0]);
                    break;
                case BlockType::Constant:
                    out[0] = param_double(blk, "Value", "0");
                    break;
                case BlockType::UnitDelay:
                    break;  // published above, latched below
                case BlockType::CommChannel: {
                    out[0] = read(b.input_slots[0]);
                    ++result.channel_traffic[blk.parameter_or("Protocol", "RAW")];
                    break;
                }
                case BlockType::SFunction: {
                    std::vector<double> ins(b.input_slots.size());
                    for (std::size_t i = 0; i < ins.size(); ++i)
                        ins[i] = read(b.input_slots[i]);
                    std::span<double> outs(
                        out, static_cast<std::size_t>(
                                 std::max(1, blk.output_count())));
                    (*b.sfun)(ins, outs, t, b.state);
                    break;
                }
                case BlockType::Inport:
                    // Root Inport: mirror the external value into its slot.
                    out[0] = externals[static_cast<std::size_t>(
                        net.external_index.at(blk.parameter_or("Var", blk.name())))];
                    break;
                case BlockType::Outport:
                case BlockType::Scope: {
                    double v = read(b.input_slots.empty() ? -1 : b.input_slots[0]);
                    out[0] = v;
                    break;
                }
                case BlockType::SubSystem:
                    break;  // never atomic
            }
        }

        // Record and latch.
        for (std::size_t i : net.recorder_indices) {
            auto& r = net.blocks[i];
            double v = values[static_cast<std::size_t>(r.first_output_slot)];
            if (r.block->type() == BlockType::Scope)
                result.scopes[r.path].push_back(v);
            else
                result.outputs[r.block->parameter_or("Var", r.block->name())]
                    .push_back(v);
        }
        for (std::size_t i : net.delay_indices) {
            auto& d = net.blocks[i];
            d.state[0] = read(d.input_slots.empty() ? -1 : d.input_slots[0]);
        }
        ++result.steps;
    }
    static obs::Counter& sim_steps = obs::counter("sim.steps");
    sim_steps.add(result.steps);
    return result;
}

}  // namespace uhcg::sim
