// Tests for the core analyses: communication extraction (§4.1 conventions),
// task-graph mining and thread allocation (§4.2.3).
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "campaign/corpus.hpp"
#include "cases/cases.hpp"
#include "core/allocation.hpp"
#include "core/comm.hpp"
#include "taskgraph/generate.hpp"
#include "uml/builder.hpp"

namespace {

using namespace uhcg;
using namespace uhcg::core;

uml::Model two_thread_model() {
    uml::ModelBuilder b("two");
    b.thread("P");
    b.thread("C");
    b.iodevice("Dev");
    auto sd = b.seq("sd");
    sd.message("P", "Dev", "getSample").result("raw");
    sd.message("P", "C", "SetRaw").arg("raw").data(16);
    sd.message("C", "P", "GetStatus").result("status").data(4);
    sd.message("C", "Dev", "setOut").arg("raw");
    return b.take();
}

/// True when some channel requires `thread` to produce `v`.
bool produces(const CommModel& comm, const uml::ObjectInstance& thread,
              std::string_view v) {
    for (const Channel* c : comm.outgoing(thread))
        if (c->variable == v) return true;
    return false;
}

TEST(CommAnalysis, SetCreatesForwardChannel) {
    uml::Model m = two_thread_model();
    CommModel comm = analyze_communication(m);
    const uml::ObjectInstance* p = m.find_object("P");
    const uml::ObjectInstance* c = m.find_object("C");
    // SetRaw: P → C carrying "raw".
    EXPECT_TRUE(produces(comm, *p, "raw"));
    EXPECT_FALSE(produces(comm, *c, "raw"));
    EXPECT_TRUE(comm.receives(*c, "raw"));
    EXPECT_FALSE(comm.receives(*p, "raw"));
    // Per-channel size is preserved on the channel record itself.
    for (const Channel& ch : comm.channels()) {
        if (ch.variable == "raw") {
            EXPECT_DOUBLE_EQ(ch.data_size, 16.0);
        }
    }
}

TEST(CommAnalysis, GetReversesDirection) {
    uml::Model m = two_thread_model();
    CommModel comm = analyze_communication(m);
    const uml::ObjectInstance* p = m.find_object("P");
    const uml::ObjectInstance* c = m.find_object("C");
    // GetStatus invoked by C on P: data flows P → C.
    EXPECT_TRUE(produces(comm, *p, "status"));
    EXPECT_TRUE(comm.receives(*c, "status"));
    // Per-pair traffic is the task graph's merged edge cost.
    taskgraph::TaskGraph g = build_task_graph(m, comm);
    EXPECT_DOUBLE_EQ(g.edge_cost(*g.find("P"), *g.find("C")), 20.0);  // 16 + 4
    EXPECT_DOUBLE_EQ(g.edge_cost(*g.find("C"), *g.find("P")), 0.0);
}

TEST(CommAnalysis, IoAccessesClassified) {
    uml::Model m = two_thread_model();
    CommModel comm = analyze_communication(m);
    const uml::ObjectInstance* p = m.find_object("P");
    const uml::ObjectInstance* c = m.find_object("C");
    auto p_in = comm.io_inputs(*p);
    ASSERT_EQ(p_in.size(), 1u);
    EXPECT_EQ(p_in[0]->variable, "raw");
    EXPECT_TRUE(p_in[0]->is_input);
    auto c_out = comm.io_outputs(*c);
    ASSERT_EQ(c_out.size(), 1u);
    EXPECT_EQ(c_out[0]->variable, "raw");
    EXPECT_TRUE(comm.io_outputs(*p).empty());
}

TEST(CommAnalysis, IncomingOutgoingViews) {
    uml::Model m = two_thread_model();
    CommModel comm = analyze_communication(m);
    const uml::ObjectInstance* p = m.find_object("P");
    const uml::ObjectInstance* c = m.find_object("C");
    EXPECT_EQ(comm.outgoing(*p).size(), 2u);  // raw + status
    EXPECT_EQ(comm.incoming(*c).size(), 2u);
    EXPECT_EQ(comm.incoming(*p).size(), 0u);
}

TEST(CommAnalysis, NonConformingMessagesIgnored) {
    uml::ModelBuilder b("x");
    b.thread("A");
    b.thread("B");
    auto sd = b.seq("sd");
    sd.message("A", "B", "weird").arg("v");             // no Set/Get prefix
    sd.message("A", "B", "GetThing");                   // Get without result
    sd.message("A", "B", "SetThing");                   // Set without args
    CommModel comm = analyze_communication(b.model());
    EXPECT_TRUE(comm.channels().empty());
}

TEST(CommAnalysis, CraneChannels) {
    uml::Model crane = cases::crane_model();
    CommModel comm = analyze_communication(crane);
    EXPECT_EQ(comm.channels().size(), 4u);  // xc, alpha, pos_f, F
    EXPECT_EQ(comm.io_accesses().size(), 1u);  // display write
}

// The per-thread views against the linear scans they replaced: same
// entries, same (emission) order, on every object of seeded models.
namespace reference {

std::vector<const Channel*> incoming(const CommModel& comm,
                                     const uml::ObjectInstance& thread) {
    std::vector<const Channel*> out;
    for (const Channel& c : comm.channels())
        if (c.consumer == &thread) out.push_back(&c);
    return out;
}

std::vector<const Channel*> outgoing(const CommModel& comm,
                                     const uml::ObjectInstance& thread) {
    std::vector<const Channel*> out;
    for (const Channel& c : comm.channels())
        if (c.producer == &thread) out.push_back(&c);
    return out;
}

bool receives(const CommModel& comm, const uml::ObjectInstance& thread,
              std::string_view v) {
    for (const Channel& c : comm.channels())
        if (c.consumer == &thread && c.variable == v) return true;
    return false;
}

std::vector<const IoAccess*> io_accesses(const CommModel& comm,
                                         const uml::ObjectInstance& thread,
                                         bool is_input) {
    std::vector<const IoAccess*> out;
    for (const IoAccess& a : comm.io_accesses())
        if (a.thread == &thread && a.is_input == is_input) out.push_back(&a);
    return out;
}

std::vector<const Channel*> links(const CommModel& comm) {
    std::vector<const Channel*> out;
    std::set<std::tuple<std::string, std::string, std::string>> seen;
    for (const Channel& c : comm.channels())
        if (seen.insert({c.producer->name(), c.consumer->name(), c.variable})
                .second)
            out.push_back(&c);
    return out;
}

double traffic(const CommModel& comm, const uml::ObjectInstance& from,
               const uml::ObjectInstance& to) {
    double sum = 0.0;
    for (const Channel& c : comm.channels())
        if (c.producer == &from && c.consumer == &to) sum += c.data_size;
    return sum;
}

}  // namespace reference

template <typename T>
std::vector<const T*> to_vector(std::span<const T* const> view) {
    return {view.begin(), view.end()};
}

void expect_queries_match_scans(const uml::Model& model) {
    SCOPED_TRACE(model.name());
    CommModel comm = analyze_communication(model);
    ASSERT_FALSE(comm.channels().empty());
    EXPECT_EQ(to_vector(comm.links()), reference::links(comm));
    std::set<std::string> variables = {"no-such-variable"};
    for (const Channel& c : comm.channels()) variables.insert(c.variable);
    for (const IoAccess& a : comm.io_accesses()) variables.insert(a.variable);
    for (const uml::ObjectInstance* o : model.objects()) {
        SCOPED_TRACE(o->name());
        EXPECT_EQ(to_vector(comm.incoming(*o)), reference::incoming(comm, *o));
        EXPECT_EQ(to_vector(comm.outgoing(*o)), reference::outgoing(comm, *o));
        EXPECT_EQ(to_vector(comm.io_inputs(*o)),
                  reference::io_accesses(comm, *o, true));
        EXPECT_EQ(to_vector(comm.io_outputs(*o)),
                  reference::io_accesses(comm, *o, false));
        for (const std::string& v : variables)
            EXPECT_EQ(comm.receives(*o, v), reference::receives(comm, *o, v))
                << v;
    }
    // Per-pair traffic lives in the task graph: one merged edge per
    // producer/consumer pair, costing the pair's summed data sizes.
    taskgraph::TaskGraph g = build_task_graph(model, comm);
    std::set<std::pair<const uml::ObjectInstance*, const uml::ObjectInstance*>>
        pairs;
    for (const Channel& c : comm.channels()) {
        if (!pairs.insert({c.producer, c.consumer}).second) continue;
        EXPECT_DOUBLE_EQ(g.edge_cost(*g.find(c.producer->name()),
                                     *g.find(c.consumer->name())),
                         reference::traffic(comm, *c.producer, *c.consumer));
    }
    EXPECT_EQ(g.edge_count(), pairs.size());
}

TEST(CommModel, QueriesMatchLinearScans) {
    for (std::uint64_t seed : {1u, 2u, 3u, 4u, 5u})
        expect_queries_match_scans(cases::random_application(seed, 40, 6));
    for (std::size_t feedback : {std::size_t{0}, std::size_t{1}}) {
        campaign::CorpusOptions options;
        options.models = 2;
        options.seed = 7;
        options.min_threads = 30;
        options.max_threads = 30;
        options.feedback_cycles = feedback;
        for (std::size_t i = 0; i < options.models; ++i)
            expect_queries_match_scans(campaign::synth_model(options, i));
    }
    expect_queries_match_scans(cases::crane_model());
    expect_queries_match_scans(cases::mixed_model());
    expect_queries_match_scans(two_thread_model());
}

// --- task graph mining ----------------------------------------------------------

TEST(TaskGraphMining, NodesAreThreadsEdgesAreTraffic) {
    uml::Model m = two_thread_model();
    CommModel comm = analyze_communication(m);
    taskgraph::TaskGraph g = build_task_graph(m, comm);
    EXPECT_EQ(g.task_count(), 2u);
    auto p = g.find("P");
    auto c = g.find("C");
    ASSERT_TRUE(p && c);
    // Both channels flow P → C and merge into one edge of cost 20.
    EXPECT_EQ(g.edge_count(), 1u);
    EXPECT_DOUBLE_EQ(g.edge_cost(*p, *c), 20.0);
}

TEST(TaskGraphMining, SyntheticMatchesPaperGraph) {
    uml::Model syn = cases::synthetic_model();
    CommModel comm = analyze_communication(syn);
    taskgraph::TaskGraph mined = build_task_graph(syn, comm);
    taskgraph::TaskGraph reference = taskgraph::paper_synthetic_graph();
    ASSERT_EQ(mined.task_count(), reference.task_count());
    ASSERT_EQ(mined.edge_count(), reference.edge_count());
    for (const taskgraph::Edge& e : reference.edges()) {
        auto from = mined.find(reference.name(e.from));
        auto to = mined.find(reference.name(e.to));
        ASSERT_TRUE(from && to);
        EXPECT_DOUBLE_EQ(mined.edge_cost(*from, *to), e.cost)
            << reference.name(e.from) << " -> " << reference.name(e.to);
    }
}

// --- allocation ------------------------------------------------------------------

TEST(Allocation, ManualAssignment) {
    uml::Model m = two_thread_model();
    Allocation a;
    std::size_t cpu = a.add_processor("CPU1");
    a.assign(*m.find_object("P"), cpu);
    EXPECT_TRUE(a.is_assigned(*m.find_object("P")));
    EXPECT_FALSE(a.is_assigned(*m.find_object("C")));
    EXPECT_EQ(a.processor_of(*m.find_object("P")), cpu);
    EXPECT_THROW(a.processor_of(*m.find_object("C")), std::out_of_range);
    EXPECT_THROW(a.assign(*m.find_object("P"), cpu), std::invalid_argument);
    EXPECT_THROW(a.assign(*m.find_object("C"), 7), std::out_of_range);
}

TEST(Allocation, FromDeploymentDiagram) {
    uml::Model didactic = cases::didactic_model();
    Allocation a = allocation_from_deployment(didactic);
    EXPECT_EQ(a.processor_count(), 2u);
    EXPECT_EQ(a.processor_name(0), "CPU1");
    EXPECT_TRUE(a.same_processor(*didactic.find_object("T1"),
                                 *didactic.find_object("T2")));
    EXPECT_FALSE(a.same_processor(*didactic.find_object("T1"),
                                  *didactic.find_object("T3")));
    EXPECT_EQ(a.threads_on(0).size(), 2u);
}

TEST(Allocation, MissingDeploymentThrows) {
    uml::Model syn = cases::synthetic_model();  // no deployment diagram
    EXPECT_THROW(allocation_from_deployment(syn), std::runtime_error);
}

TEST(Allocation, UndeployedThreadThrows) {
    uml::ModelBuilder b("m");
    b.thread("T1");
    b.thread("Orphan");
    b.cpu("CPU1");
    b.deploy("T1", "CPU1");
    EXPECT_THROW(allocation_from_deployment(b.model()), std::runtime_error);
}

TEST(Allocation, AutoMatchesFig7) {
    uml::Model syn = cases::synthetic_model();
    CommModel comm = analyze_communication(syn);
    Allocation a = auto_allocate(syn, comm);
    EXPECT_EQ(a.processor_count(), 4u);
    auto on = [&](const char* t) { return a.processor_of(*syn.find_object(t)); };
    EXPECT_EQ(on("A"), on("J"));
    EXPECT_EQ(on("E"), on("I"));
    EXPECT_EQ(on("G"), on("M"));
    EXPECT_EQ(on("H"), on("L"));
    EXPECT_NE(on("A"), on("E"));
}

TEST(Allocation, AutoRespectsProcessorBudget) {
    uml::Model syn = cases::synthetic_model();
    CommModel comm = analyze_communication(syn);
    Allocation a = auto_allocate(syn, comm, 2);
    EXPECT_LE(a.processor_count(), 2u);
    for (const uml::ObjectInstance* t : syn.threads())
        EXPECT_TRUE(a.is_assigned(*t));
}

TEST(Allocation, AutoClusteringExposedForBenches) {
    uml::Model syn = cases::synthetic_model();
    CommModel comm = analyze_communication(syn);
    taskgraph::Clustering c = auto_clustering(syn, comm);
    EXPECT_EQ(c.cluster_count(), 4);
    EXPECT_TRUE(
        taskgraph::is_linear(build_task_graph(syn, comm), c));
}

}  // namespace
