#include "kpn/execute.hpp"

#include <algorithm>
#include <sstream>

#include "obs/obs.hpp"

namespace uhcg::kpn {

void KernelRegistry::register_kernel(std::string name, Kernel kernel,
                                     std::size_t state_size) {
    entries_[std::move(name)] = {std::move(kernel), state_size};
}

const KernelRegistry::Entry* KernelRegistry::find(
    const std::string& name) const {
    auto it = entries_.find(name);
    return it == entries_.end() ? nullptr : &it->second;
}

const Kernel& KernelRegistry::kernel(const std::string& name) const {
    const Entry* entry = find(name);
    if (!entry)
        throw std::runtime_error("no kernel registered for '" + name + "'");
    return entry->kernel;
}

std::size_t KernelRegistry::state_size(const std::string& name) const {
    const Entry* entry = find(name);
    return entry ? entry->state_size : 0;
}

ReadBlockedError::ReadBlockedError(std::vector<std::string> blocked,
                                   std::vector<ChannelState> channels)
    : std::runtime_error([&blocked] {
          std::ostringstream msg;
          msg << "KPN read-blocked — no process can fire; blocked:";
          for (const auto& p : blocked) msg << ' ' << p;
          msg << " (cyclic network without initial tokens?)";
          return msg.str();
      }()),
      blocked_(std::move(blocked)),
      channels_(std::move(channels)) {}

Executor::Executor(const Network& network, const KernelRegistry& registry)
    : network_(&network), registry_(&registry) {
    auto problems = network.check();
    if (!problems.empty()) {
        // Report every problem, not just the first: a malformed network
        // usually has several, and refixing one per run wastes cycles.
        std::ostringstream msg;
        msg << "malformed KPN (" << problems.size() << " problem(s)):";
        for (const auto& p : problems) msg << "\n  " << p;
        throw std::runtime_error(msg.str());
    }
    kernels_.reserve(network.processes().size());
    for (const Process* p : network.processes()) {
        const KernelRegistry::Entry* entry = registry.find(p->kernel());
        if (!entry)
            throw std::runtime_error("process '" + p->name() +
                                     "' needs unregistered kernel '" +
                                     p->kernel() + "'");
        kernels_.push_back(entry);
    }
}

void Executor::set_input(const std::string& var,
                         std::function<double(std::size_t)> signal) {
    inputs_[var] = std::move(signal);
}

KpnResult Executor::run(std::size_t rounds) {
    return run_impl(rounds, nullptr, {});
}

KpnResult Executor::run(std::size_t rounds, diag::DiagnosticEngine& engine,
                        const WatchdogBudget& budget) {
    return run_impl(rounds, &engine, budget);
}

KpnResult Executor::run_impl(std::size_t rounds, diag::DiagnosticEngine* engine,
                             const WatchdogBudget& budget) {
    obs::ObsSpan span("kpn.run");
    const auto processes = network_->processes();
    const auto& channels = network_->channels();

    // Channel queues, seeded with initial tokens (value 0.0).
    std::vector<std::deque<double>> queues(channels.size());
    for (std::size_t c = 0; c < channels.size(); ++c)
        for (std::size_t t = 0; t < channels[c].initial_tokens; ++t)
            queues[c].push_back(0.0);

    // Per process: which channel feeds each input (-1 = network boundary)
    // and which sinks each output fans out to (several channels and/or a
    // network output may share one port).
    std::map<const Process*, std::vector<int>> in_chan;
    std::map<const Process*, std::vector<std::vector<int>>> out_chans;
    std::map<const Process*, std::vector<bool>> out_is_network;
    for (const Process* p : processes) {
        in_chan[p].assign(p->input_count(), -1);
        out_chans[p].assign(p->output_count(), {});
        out_is_network[p].assign(p->output_count(), false);
    }
    for (std::size_t c = 0; c < channels.size(); ++c) {
        in_chan[channels[c].consumer][channels[c].consumer_port] =
            static_cast<int>(c);
        out_chans[channels[c].producer][channels[c].producer_port].push_back(
            static_cast<int>(c));
    }
    for (const NetworkPort& p : network_->network_outputs())
        out_is_network[p.process][p.port] = true;
    // Network boundary queues keyed by (process, port).
    std::map<std::pair<const Process*, std::size_t>, std::deque<double>> env_in;
    for (const NetworkPort& p : network_->network_inputs())
        env_in[{p.process, p.port}];

    std::map<const Process*, std::vector<double>> state;
    for (std::size_t i = 0; i < processes.size(); ++i)
        state[processes[i]].assign(kernels_[i]->state_size, 0.0);

    KpnResult result;
    auto track_depth = [&] {
        for (const auto& q : queues)
            result.max_queue_depth = std::max(result.max_queue_depth, q.size());
    };
    auto snapshot_channels = [&] {
        std::vector<ChannelState> states;
        states.reserve(channels.size());
        for (std::size_t c = 0; c < channels.size(); ++c)
            states.push_back({channels[c].variable, channels[c].producer->name(),
                              channels[c].consumer->name(), queues[c].size()});
        return states;
    };

    for (std::size_t round = 0; round < rounds; ++round) {
        // Environment delivers one token per network input.
        for (const NetworkPort& p : network_->network_inputs()) {
            auto it = inputs_.find(p.variable);
            env_in[{p.process, p.port}].push_back(
                it != inputs_.end() ? it->second(round) : 0.0);
        }

        std::vector<bool> fired(processes.size(), false);
        std::size_t fired_count = 0;
        while (fired_count < processes.size()) {
            bool progress = false;
            for (std::size_t i = 0; i < processes.size(); ++i) {
                if (fired[i]) continue;
                const Process* p = processes[i];
                // Blocking-read semantics: fire only when every input has
                // a token available.
                bool ready = true;
                for (std::size_t port = 0; port < p->input_count(); ++port) {
                    int c = in_chan[p][port];
                    bool has = c >= 0 ? !queues[static_cast<std::size_t>(c)].empty()
                                      : !env_in[{p, port}].empty();
                    if (!has) {
                        ready = false;
                        break;
                    }
                }
                if (!ready) continue;

                std::vector<double> ins(p->input_count());
                for (std::size_t port = 0; port < p->input_count(); ++port) {
                    int c = in_chan[p][port];
                    auto& q = c >= 0 ? queues[static_cast<std::size_t>(c)]
                                     : env_in[{p, port}];
                    ins[port] = q.front();
                    q.pop_front();
                    if (c >= 0)
                        ++result.channel_tokens[channels[static_cast<std::size_t>(c)]
                                                    .variable];
                }
                std::vector<double> outs(p->output_count(), 0.0);
                kernels_[i]->kernel(ins, outs, state[p]);
                for (std::size_t port = 0; port < p->output_count(); ++port) {
                    for (int c : out_chans[p][port]) {
                        auto& q = queues[static_cast<std::size_t>(c)];
                        q.push_back(outs[port]);
                        result.max_queue_depth =
                            std::max(result.max_queue_depth, q.size());
                    }
                    if (out_is_network[p][port] || out_chans[p][port].empty())
                        result.outputs[p->output_name(port)].push_back(outs[port]);
                }
                fired[i] = true;
                ++fired_count;
                ++result.firings;
                static obs::Counter& firings = obs::counter("kpn.firings");
                firings.add(1);
                progress = true;
                // Past the first firing a queue only deepens by a push.
                if (result.firings == 1) track_depth();
                if (budget.max_firings && result.firings >= budget.max_firings &&
                    engine) {
                    // Livelock watchdog: the budget bounds total work even
                    // if the schedule keeps finding fireable processes.
                    result.budget_exhausted = true;
                    result.channel_states = snapshot_channels();
                    engine->report(
                        diag::Severity::Error, diag::codes::kKpnWatchdog,
                        "KPN execution exceeded the firing budget (" +
                            std::to_string(budget.max_firings) +
                            " firings) — stopping after round " +
                            std::to_string(result.rounds),
                        {}, {"network '" + network_->name() + "'"});
                    return result;
                }
            }
            if (!progress) {
                std::vector<std::string> blocked;
                for (std::size_t i = 0; i < processes.size(); ++i)
                    if (!fired[i]) blocked.push_back(processes[i]->name());
                std::vector<ChannelState> states = snapshot_channels();
                if (!engine) throw ReadBlockedError(std::move(blocked), std::move(states));
                // Watchdogged mode: degrade to a structured diagnostic and
                // hand back the partial result.
                result.deadlocked = true;
                result.blocked = blocked;
                result.channel_states = states;
                std::vector<std::string> notes;
                {
                    std::ostringstream b;
                    b << "blocked process(es):";
                    for (const auto& p : blocked) b << ' ' << p;
                    notes.push_back(b.str());
                }
                for (const ChannelState& cs : states)
                    notes.push_back("channel '" + cs.variable + "' (" +
                                    cs.producer + " -> " + cs.consumer + "): " +
                                    std::to_string(cs.tokens) + " token(s)");
                notes.push_back("cyclic network without initial tokens?");
                engine->report(diag::Severity::Error, diag::codes::kKpnReadBlocked,
                               "KPN read-blocked in round " +
                                   std::to_string(result.rounds + 1) + " — " +
                                   std::to_string(blocked.size()) +
                                   " process(es) cannot fire",
                               {}, std::move(notes));
                return result;
            }
        }
        ++result.rounds;
    }
    return result;
}

}  // namespace uhcg::kpn
