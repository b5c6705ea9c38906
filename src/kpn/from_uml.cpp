#include "kpn/from_uml.hpp"

#include <map>
#include <set>

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
        std::map<const uml::ObjectInstance*, Object*> processes;
        std::size_t counter = 0;
    };
    auto st = std::make_shared<State>();
    st->um = &model;
    st->comm = &comm;

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
             const uml::ObjectInstance* typed =
                 st->um->find_object(src.get_string("name"));
             if (!typed) return;
             Object& p = ctx.create(src, "Thread2Process", "Process",
                                    "proc." + typed->name());
             p.set("name", typed->name());
             p.set("kernel", typed->name());
             std::set<std::string> in_vars, out_vars;
             std::int64_t in_index = 0, out_index = 0;
             auto add_port = [&](const std::string& var, bool is_input) {
                 auto& seen = is_input ? in_vars : out_vars;
                 if (!seen.insert(var).second) return;
                 Object& port = ctx.target().create(
                     "Port", p.id() + (is_input ? ".in" : ".out") +
                                 std::to_string(st->counter++));
                 port.set("index", is_input ? in_index++ : out_index++);
                 port.set("isInput", is_input);
                 port.set("var", var);
                 p.add_ref("ports", port);
             };
             for (const core::Channel* l : st->comm->links()) {
                 if (l->consumer == typed) add_port(l->variable, true);
                 if (l->producer == typed) add_port(l->variable, false);
             }
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
             auto port_index = [&](Object& proc, const std::string& var,
                                   bool is_input) -> std::int64_t {
                 for (const Object* port : proc.refs("ports"))
                     if (port->get_bool("isInput") == is_input &&
                         port->get_string("var") == var)
                         return port->get_int("index");
                 return -1;
             };
             std::size_t index = 0;
             for (const core::Channel* l : st->comm->links()) {
                 Object& producer = *st->processes.at(l->producer);
                 Object& consumer = *st->processes.at(l->consumer);
                 Object& c = ctx.create(src, "Links2Channels", "Channel",
                                        "chan." + std::to_string(index++));
                 c.set("variable", l->variable);
                 c.set("producerPort", port_index(producer, l->variable, false));
                 c.set("consumerPort", port_index(consumer, l->variable, true));
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
                 p.set("port", port_index(*it->second, a.variable, a.is_input));
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
    // the process graph (DFS back edges).
    if (options.auto_initial_tokens) {
        auto procs = out.network.processes();
        std::map<const Process*, std::size_t> index;
        for (std::size_t i = 0; i < procs.size(); ++i) index[procs[i]] = i;
        enum Color { White, Gray, Black };
        std::vector<Color> color(procs.size(), White);
        auto dfs = [&](auto&& self, std::size_t p) -> void {
            color[p] = Gray;
            for (ChannelDecl& c : out.network.channels()) {
                if (index.at(c.producer) != p) continue;
                std::size_t q = index.at(c.consumer);
                if (color[q] == Gray) {
                    if (c.initial_tokens == 0) {
                        c.initial_tokens = 1;  // break the cycle
                        ++out.initial_tokens_inserted;
                    }
                } else if (color[q] == White) {
                    self(self, q);
                }
            }
            color[p] = Black;
        };
        for (std::size_t p = 0; p < procs.size(); ++p)
            if (color[p] == White) dfs(dfs, p);
    }

    auto problems = out.network.check();
    for (const std::string& p : problems) out.warnings.push_back("kpn: " + p);
    return out;
}

}  // namespace uhcg::kpn
