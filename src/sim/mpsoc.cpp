#include "sim/mpsoc.hpp"

#include "obs/obs.hpp"
#include "sim/batch.hpp"

namespace uhcg::sim {

MpsocResult simulate_mpsoc(const taskgraph::TaskGraph& graph,
                           const taskgraph::Clustering& clustering,
                           const MpsocParams& params) {
    // Runs on pool workers during the DSE sweep; parallel_for's context
    // propagation parents this span under the submitting sweep span.
    obs::ObsSpan span("sim.mpsoc");
    // One-shot = a batch of one. There is a single pricing implementation,
    // which is what lets `--dse-verify-full` treat this call as the
    // fresh-evaluator oracle for the sweep's reused evaluators.
    MpsocPrep prep(graph, params);
    MpsocBatch batch(prep);
    return batch.evaluate(clustering);
}

}  // namespace uhcg::sim
