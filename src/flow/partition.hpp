// partition.hpp — the subsystem partitioner: the decision layer of Fig. 1.
//
// "The choice of the most adequate strategy depends on the application
// domain": one UML model may mix dataflow-oriented subsystems (thread
// pipelines exchanging data over Set/Get channels, best served by the
// Simulink CAAM branch) with control-flow-oriented ones (reactive state
// machines, best served by FSM code generation). The partitioner classifies
// the model's subsystems so the strategy dispatcher can route each to its
// generator.
//
// Classification heuristics (each recorded as rationale):
//  * a UML state machine is a control-flow subsystem by construction;
//  * a state machine whose name matches a thread or its classifier binds
//    that thread to the control-flow side (noted, not removed — its data
//    channels still synthesize);
//  * a closed feedback loop in the inter-thread channel graph (the §5.1
//    crane pattern: plant → filter → controller → plant) marks the thread
//    subsystem control-flow-characterised — the CAAM branch still handles
//    it, via §4.2.2 temporal barriers;
//  * a feed-forward thread topology with Set/Get data channels is a
//    dataflow subsystem (the Fig. 3 didactic pattern).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "core/comm.hpp"
#include "uml/model.hpp"

namespace uhcg::flow {

enum class SubsystemKind { Dataflow, ControlFlow };

std::string_view to_string(SubsystemKind kind);

/// One partition of the model: either the thread subsystem (threads
/// non-empty) or a state-machine subsystem (machine non-null).
struct Subsystem {
    std::string name;
    SubsystemKind kind = SubsystemKind::Dataflow;
    std::vector<const uml::ObjectInstance*> threads;
    const uml::StateMachine* machine = nullptr;
    /// Why the classifier decided this way (human-readable, traced).
    std::vector<std::string> rationale;
};

struct PartitionReport {
    std::vector<Subsystem> subsystems;
    /// Model-level character: control-flow when any feedback loop or any
    /// state machine dominates the picture, dataflow otherwise.
    SubsystemKind dominant = SubsystemKind::Dataflow;
    /// Feedback cycles found in the inter-thread channel graph.
    std::size_t feedback_cycles = 0;
    std::vector<std::string> notes;
};

/// Partitions `model`, whose communication analysis is `comm`.
PartitionReport partition(const uml::Model& model, const core::CommModel& comm);

}  // namespace uhcg::flow
