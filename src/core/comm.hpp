// comm.hpp — communication analysis over UML sequence diagrams.
//
// The §4.1 conventions make inter-thread and environment communication
// syntactically recognizable:
//  * `Set*` message thread A → thread B carrying argument v:
//        A sends v to B            ⇒ data channel A --v--> B;
//  * `Get*` message thread A → thread B binding result v:
//        A receives v from B       ⇒ data channel B --v--> A;
//  * `get*` on an <<IO>> object binding result v: environment input to the
//    invoking thread;
//  * `set*` on an <<IO>> object carrying argument v: environment output.
//
// The analysis builds the one communication graph every later stage
// reads: channel inference (§4.2.1), the task graph for thread allocation
// (§4.2.3), the mapping's Thread-SS ports and the threads/KPN fallbacks.
// `flow::generate` builds it once and shares that instance. The per-thread
// views index the channel and IO tables and list entries in table
// (emission) order, exactly as a filtered scan of the table would.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "uml/model.hpp"

namespace uhcg::core {

/// One inter-thread data channel (producer's variable v flows to consumer).
struct Channel {
    const uml::ObjectInstance* producer = nullptr;
    const uml::ObjectInstance* consumer = nullptr;
    std::string variable;
    double data_size = 1.0;
};

/// One environment access by a thread through an <<IO>> device.
struct IoAccess {
    const uml::ObjectInstance* thread = nullptr;
    const uml::ObjectInstance* device = nullptr;
    std::string variable;
    bool is_input = false;  ///< true for get* (environment → thread)
};

/// Result of the analysis. Movable but not copyable: the per-thread views
/// point into the tables.
class CommModel {
public:
    CommModel() = default;
    CommModel(CommModel&&) = default;
    CommModel& operator=(CommModel&&) = default;
    CommModel(const CommModel&) = delete;
    CommModel& operator=(const CommModel&) = delete;

    const std::vector<Channel>& channels() const { return channels_; }
    const std::vector<IoAccess>& io_accesses() const { return io_; }
    /// One channel per data link: the first of each (producer name,
    /// consumer name, variable), in table order — a Set on one side and a
    /// Get on the other name the same link.
    std::span<const Channel* const> links() const { return links_; }

    /// Channels consumed / produced by one thread.
    std::span<const Channel* const> incoming(const uml::ObjectInstance& t) const {
        return of(t).incoming;
    }
    std::span<const Channel* const> outgoing(const uml::ObjectInstance& t) const {
        return of(t).outgoing;
    }
    /// True when `thread` receives variable `v` over some channel.
    bool receives(const uml::ObjectInstance& thread, std::string_view v) const;
    /// IO inputs (get*) / outputs (set*) of one thread.
    std::span<const IoAccess* const> io_inputs(const uml::ObjectInstance& t) const {
        return of(t).io_inputs;
    }
    std::span<const IoAccess* const> io_outputs(const uml::ObjectInstance& t) const {
        return of(t).io_outputs;
    }

private:
    struct ThreadIndex {
        std::vector<const Channel*> incoming, outgoing;
        std::vector<const IoAccess*> io_inputs, io_outputs;
    };
    const ThreadIndex& of(const uml::ObjectInstance& thread) const;

    friend CommModel analyze_communication(const uml::Model& model);

    std::vector<Channel> channels_;
    std::vector<IoAccess> io_;
    std::vector<const Channel*> links_;
    std::unordered_map<const uml::ObjectInstance*, ThreadIndex> index_;
};

/// Runs the analysis. Messages violating the conventions are skipped here;
/// uml::check reports them as errors beforehand.
CommModel analyze_communication(const uml::Model& model);

}  // namespace uhcg::core
