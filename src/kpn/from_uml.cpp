#include "kpn/from_uml.hpp"

#include <map>
#include <string_view>
#include <tuple>
#include <unordered_map>

#include "kpn/generic.hpp"
#include "uml/generic.hpp"

namespace uhcg::kpn {

using model::Object;
using model::ObjectModel;

KpnMappingOutput map_to_kpn(const uml::Model& model,
                            const KpnMappingOptions& options) {
    return map_to_kpn(model, core::analyze_communication(model), options);
}

KpnMappingOutput map_to_kpn(const uml::Model& model, const core::CommModel& comm,
                            const KpnMappingOptions& options) {
    ObjectModel source = uml::to_generic(model);

    struct State {
        const uml::Model* um;
        const core::CommModel* comm;
        Object* network = nullptr;
        /// The first object of each name, as Model::find_object answers.
        std::unordered_map<std::string_view, const uml::ObjectInstance*> objects;
        std::map<const uml::ObjectInstance*, Object*> processes;
        /// (thread, variable, is_input) → index of the process port.
        std::map<std::tuple<const uml::ObjectInstance*, std::string, bool>,
                 std::int64_t>
            port_of;
        std::size_t counter = 0;
    };
    auto st = std::make_shared<State>();
    st->um = &model;
    st->comm = &comm;
    for (const uml::ObjectInstance* o : model.objects())
        st->objects.emplace(o->name(), o);

    transform::Engine engine(kpn_metamodel());

    // Rule 1: Model → Network.
    engine.add_rule({"Model2Network", "Model", nullptr,
                     [st](transform::Context& ctx, const Object& src) {
                         Object& n = ctx.create(src, "Model2Network", "Network",
                                                "kpn." + src.get_string("name"));
                         n.set("name", src.get_string("name"));
                         st->network = &n;
                     }});

    // Rule 2: <<SASchedRes>> → Process. Ports come from the communication
    // analysis: every distinct received/produced variable plus <<IO>>
    // accesses; the thread's internal block layer abstracts into the
    // kernel.
    engine.add_rule(
        {"Thread2Process", "ObjectInstance",
         [](const Object& o) { return o.get_bool("isThread"); },
         [st](transform::Context& ctx, const Object& src) {
             auto found = st->objects.find(src.get_string("name"));
             if (found == st->objects.end()) return;
             const uml::ObjectInstance* typed = found->second;
             Object& p = ctx.create(src, "Thread2Process", "Process",
                                    "proc." + typed->name());
             p.set("name", typed->name());
             p.set("kernel", typed->name());
             std::int64_t in_index = 0, out_index = 0;
             auto add_port = [&](const std::string& var, bool is_input) {
                 std::int64_t& next = is_input ? in_index : out_index;
                 if (!st->port_of.try_emplace({typed, var, is_input}, next).second)
                     return;
                 Object& port = ctx.target().create(
                     "Port", p.id() + (is_input ? ".in" : ".out") +
                                 std::to_string(st->counter++));
                 port.set("index", next++);
                 port.set("isInput", is_input);
                 port.set("var", var);
                 p.add_ref("ports", port);
             };
             for (const core::Channel* c : st->comm->incoming(*typed))
                 add_port(c->variable, true);
             for (const core::Channel* c : st->comm->outgoing(*typed))
                 add_port(c->variable, false);
             for (const core::IoAccess* a : st->comm->io_inputs(*typed))
                 add_port(a->variable, true);
             for (const core::IoAccess* a : st->comm->io_outputs(*typed))
                 add_port(a->variable, false);
             st->processes[typed] = &p;
         }});

    // Rule 3: data links → channels; <<IO>> accesses → network ports.
    engine.add_rule(
        {"Links2Channels", "Model", nullptr,
         [st](transform::Context& ctx, const Object& src) {
             auto port_index = [&](const uml::ObjectInstance* thread,
                                   const std::string& var,
                                   bool is_input) -> std::int64_t {
                 auto it = st->port_of.find({thread, var, is_input});
                 return it == st->port_of.end() ? -1 : it->second;
             };
             std::size_t index = 0;
             for (const core::Channel* l : st->comm->links()) {
                 Object& producer = *st->processes.at(l->producer);
                 Object& consumer = *st->processes.at(l->consumer);
                 Object& c = ctx.create(src, "Links2Channels", "Channel",
                                        "chan." + std::to_string(index++));
                 c.set("variable", l->variable);
                 c.set("producerPort", port_index(l->producer, l->variable, false));
                 c.set("consumerPort", port_index(l->consumer, l->variable, true));
                 c.set_ref("producer", &producer);
                 c.set_ref("consumer", &consumer);
                 st->network->add_ref("channels", c);
             }
             std::size_t nport = 0;
             for (const core::IoAccess& a : st->comm->io_accesses()) {
                 auto it = st->processes.find(a.thread);
                 if (it == st->processes.end()) continue;
                 Object& p = ctx.create(src, "Links2Channels", "NetworkPort",
                                        "nport." + std::to_string(nport++));
                 p.set("var", a.variable);
                 p.set("isInput", a.is_input);
                 p.set("port", port_index(a.thread, a.variable, a.is_input));
                 p.set_ref("process", it->second);
                 st->network->add_ref("ports", p);
             }
             // Deterministic network order: model thread declaration order
             // (pointer-keyed map order would vary run to run, changing
             // DFS seeds and diffs).
             for (const uml::ObjectInstance* t : st->um->threads()) {
                 auto it = st->processes.find(t);
                 if (it != st->processes.end())
                     st->network->add_ref("processes", *it->second);
             }
         }});

    KpnMappingOutput out{Network("unset"), {}, 0, {}};
    ObjectModel generic = engine.run(source, nullptr, &out.stats);
    out.network = from_generic(generic);

    // §4.2.2 analogue: seed initial tokens on cycle-breaking channels of
    // the process graph (DFS back edges), on an explicit stack so a long
    // process chain never reaches the call stack.
    if (options.auto_initial_tokens) {
        std::map<const Process*, std::vector<ChannelDecl*>> produced;
        for (ChannelDecl& c : out.network.channels())
            produced[c.producer].push_back(&c);
        enum Color { White, Gray, Black };
        std::map<const Process*, Color> color;
        std::vector<std::pair<const Process*, std::size_t>> stack;  // process, next
        for (const Process* root : out.network.processes()) {
            if (color[root] != White) continue;
            color[root] = Gray;
            stack.emplace_back(root, 0);
            while (!stack.empty()) {
                auto& [p, next] = stack.back();
                if (next == produced[p].size()) {
                    color[p] = Black;
                    stack.pop_back();
                } else if (ChannelDecl& c = *produced[p][next++];
                           color[c.consumer] == White) {
                    color[c.consumer] = Gray;
                    stack.emplace_back(c.consumer, 0);
                } else if (color[c.consumer] == Gray && c.initial_tokens == 0) {
                    c.initial_tokens = 1;  // break the cycle
                    ++out.initial_tokens_inserted;
                }
            }
        }
    }

    auto problems = out.network.check();
    for (const std::string& p : problems) out.warnings.push_back("kpn: " + p);
    return out;
}

}  // namespace uhcg::kpn
