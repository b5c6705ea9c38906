// backend.hpp — the end-to-end benchmark's fixed entry points into pricing.
//
// Every candidate is priced by one path: sim::MpsocPrep plus
// sim::MpsocBatch (sim/batch.hpp), reached directly or through
// simulate_mpsoc. This header keeps only the two call shapes the
// benchmark program under e2ebench/ (uhcg_e2ebench) is written against;
// that program is its only caller. The name argument of those shapes
// accepts "" and "dynamic-fifo" (both the one path) and throws
// std::invalid_argument for anything else.
#pragma once

#include <memory>
#include <string_view>

#include "diag/diag.hpp"
#include "sim/batch.hpp"
#include "sim/mpsoc.hpp"
#include "taskgraph/clustering.hpp"
#include "taskgraph/graph.hpp"

namespace uhcg::sim {

/// A graph prepared for pricing; each evaluator() is a fresh MpsocBatch.
struct PreparedPricing {
    MpsocPrep prep;
    std::unique_ptr<MpsocBatch> evaluator() const {
        return std::make_unique<MpsocBatch>(prep);
    }
};

/// The one pricing path under the call shape `compile(...)->evaluator()`.
struct Pricing {
    /// Prepares `graph` under `params`; throws std::logic_error when the
    /// graph is cyclic. `engine` is accepted and unused.
    std::unique_ptr<PreparedPricing> compile(
        const taskgraph::TaskGraph& graph, const MpsocParams& params,
        diag::DiagnosticEngine* engine = nullptr) const;
};

/// The pricing path for `name` ("" or "dynamic-fifo").
const Pricing& backend_or_throw(std::string_view name);

/// simulate_mpsoc after checking `name` as backend_or_throw does;
/// `engine` is accepted and unused.
MpsocResult simulate_backend(const taskgraph::TaskGraph& graph,
                             const taskgraph::Clustering& clustering,
                             const MpsocParams& params,
                             std::string_view name,
                             diag::DiagnosticEngine* engine = nullptr);

}  // namespace uhcg::sim
