#include "sim/backend.hpp"

#include <stdexcept>
#include <string>

namespace uhcg::sim {

std::unique_ptr<PreparedPricing> Pricing::compile(
    const taskgraph::TaskGraph& graph, const MpsocParams& params,
    diag::DiagnosticEngine*) const {
    return std::make_unique<PreparedPricing>(PreparedPricing{{graph, params}});
}

const Pricing& backend_or_throw(std::string_view name) {
    static const Pricing pricing;
    if (name.empty() || name == "dynamic-fifo") return pricing;
    throw std::invalid_argument("unknown simulation backend '" +
                                std::string(name) +
                                "' (known: dynamic-fifo)");
}

MpsocResult simulate_backend(const taskgraph::TaskGraph& graph,
                             const taskgraph::Clustering& clustering,
                             const MpsocParams& params, std::string_view name,
                             diag::DiagnosticEngine*) {
    backend_or_throw(name);
    return simulate_mpsoc(graph, clustering, params);
}

}  // namespace uhcg::sim
