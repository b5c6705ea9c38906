#include "core/comm.hpp"

#include <set>
#include <tuple>

#include "obs/obs.hpp"

namespace uhcg::core {

const CommModel::ThreadIndex& CommModel::of(
    const uml::ObjectInstance& thread) const {
    static const ThreadIndex kNone;
    auto it = index_.find(&thread);
    return it == index_.end() ? kNone : it->second;
}

bool CommModel::receives(const uml::ObjectInstance& thread,
                         std::string_view v) const {
    for (const Channel* c : incoming(thread))
        if (c->variable == v) return true;
    return false;
}

CommModel analyze_communication(const uml::Model& model) {
    obs::ObsSpan span("core.comm-analyze", "core");
    CommModel out;
    for (const uml::SequenceDiagram* d : model.sequence_diagrams()) {
        for (const uml::Message* m : d->messages()) {
            const uml::ObjectInstance* sender = m->from()->represents();
            const uml::ObjectInstance* receiver = m->to()->represents();
            const std::string& op = m->operation_name();

            if (sender->is_thread() && receiver->is_thread() && sender != receiver) {
                if (op.rfind("Set", 0) == 0 && !m->arguments().empty()) {
                    for (const uml::MessageArgument& a : m->arguments())
                        out.channels_.push_back(
                            {sender, receiver, a.name, m->data_size()});
                } else if (op.rfind("Get", 0) == 0 && !m->result_name().empty()) {
                    // Caller receives: data flows receiver → sender.
                    out.channels_.push_back(
                        {receiver, sender, m->result_name(), m->data_size()});
                }
            } else if (receiver->is_io_device() && sender->is_thread()) {
                if (op.rfind("get", 0) == 0 && !m->result_name().empty()) {
                    out.io_.push_back({sender, receiver, m->result_name(), true});
                } else if (op.rfind("set", 0) == 0 && !m->arguments().empty()) {
                    for (const uml::MessageArgument& a : m->arguments())
                        out.io_.push_back({sender, receiver, a.name, false});
                }
            }
        }
    }
    // Index once the tables are final: the views point into them.
    std::set<std::tuple<std::string_view, std::string_view, std::string_view>>
        seen;
    for (const Channel& c : out.channels_) {
        if (seen.emplace(c.producer->name(), c.consumer->name(), c.variable).second)
            out.links_.push_back(&c);
        out.index_[c.producer].outgoing.push_back(&c);
        out.index_[c.consumer].incoming.push_back(&c);
    }
    for (const IoAccess& a : out.io_) {
        CommModel::ThreadIndex& t = out.index_[a.thread];
        (a.is_input ? t.io_inputs : t.io_outputs).push_back(&a);
    }
    return out;
}

}  // namespace uhcg::core
