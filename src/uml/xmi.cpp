#include "uml/xmi.hpp"

#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>

#include "obs/obs.hpp"
#include "xml/parser.hpp"
#include "xml/writer.hpp"

namespace uhcg::uml {
namespace {

constexpr const char* kXmiNs = "http://schema.omg.org/spec/XMI/2.1";
constexpr const char* kUmlNs = "http://www.eclipse.org/uml2/2.1.0/UML";
constexpr const char* kSptNs = "http://www.omg.org/profiles/SPT";
constexpr const char* kUhcgNs = "http://uhcg.org/profiles/uhcg";

// --- deterministic ids ------------------------------------------------------

std::string class_id(const Class& c) { return "class." + c.name(); }
std::string op_id(const Operation& op) {
    return "op." + op.owner()->name() + "." + op.name();
}
std::string object_id(const ObjectInstance& o) { return "obj." + o.name(); }
std::string node_id(const NodeInstance& n) { return "node." + n.name(); }
std::string interaction_id(const SequenceDiagram& d) { return "ia." + d.name(); }
std::string lifeline_id(const SequenceDiagram& d, const Lifeline& l) {
    return "ll." + d.name() + "." + l.represents()->name();
}
std::string sm_id(const StateMachine& m) { return "sm." + m.name(); }
std::string state_id(const StateMachine& m, const State& s) {
    return "state." + m.name() + "." + s.name();
}

// --- writer -----------------------------------------------------------------

void write_class(xml::Element& parent, const Class& c) {
    xml::Element& e = parent.add_child("packagedElement");
    e.set_attribute("xmi:type", "uml:Class");
    e.set_attribute("xmi:id", class_id(c));
    e.set_attribute("name", c.name());
    e.set_attribute("isActive", c.is_active() ? "true" : "false");
    for (const Operation* op : c.operations()) {
        xml::Element& oe = e.add_child("ownedOperation");
        oe.set_attribute("xmi:id", op_id(*op));
        oe.set_attribute("name", op->name());
        for (const Parameter& p : op->parameters()) {
            xml::Element& pe = oe.add_child("ownedParameter");
            pe.set_attribute("name", p.name);
            pe.set_attribute("type", p.type);
            pe.set_attribute("direction", std::string(to_string(p.direction)));
        }
        if (!op->body().empty()) {
            xml::Element& be = oe.add_child("ownedComment");
            be.set_attribute("annotatedElement", op_id(*op));
            be.add_text(op->body());
        }
    }
}

void write_object(xml::Element& parent, const ObjectInstance& o) {
    xml::Element& e = parent.add_child("packagedElement");
    e.set_attribute("xmi:type", "uml:InstanceSpecification");
    e.set_attribute("xmi:id", object_id(o));
    e.set_attribute("name", o.name());
    if (o.classifier()) e.set_attribute("classifier", class_id(*o.classifier()));
}

void write_interaction(xml::Element& parent, const SequenceDiagram& d) {
    xml::Element& e = parent.add_child("packagedElement");
    e.set_attribute("xmi:type", "uml:Interaction");
    e.set_attribute("xmi:id", interaction_id(d));
    e.set_attribute("name", d.name());
    for (const auto& l : d.lifelines()) {
        xml::Element& le = e.add_child("lifeline");
        le.set_attribute("xmi:id", lifeline_id(d, *l));
        le.set_attribute("represents", object_id(*l->represents()));
    }
    std::size_t index = 0;
    for (const Message* m : d.messages()) {
        xml::Element& me = e.add_child("message");
        me.set_attribute("xmi:id", "msg." + d.name() + "." + std::to_string(index++));
        me.set_attribute("name", m->operation_name());
        me.set_attribute("sendLifeline", lifeline_id(d, *m->from()));
        me.set_attribute("receiveLifeline", lifeline_id(d, *m->to()));
        if (!m->result_name().empty())
            me.set_attribute("result", m->result_name());
        me.set_attribute("dataSize", std::to_string(m->data_size()));
        for (const MessageArgument& a : m->arguments()) {
            xml::Element& ae = me.add_child("argument");
            ae.set_attribute("name", a.name);
        }
    }
}

void write_deployment(xml::Element& parent, const DeploymentDiagram& dd) {
    for (const NodeInstance* n : dd.nodes()) {
        xml::Element& e = parent.add_child("packagedElement");
        e.set_attribute("xmi:type", "uml:Node");
        e.set_attribute("xmi:id", node_id(*n));
        e.set_attribute("name", n->name());
    }
    for (const auto& bus : dd.buses()) {
        xml::Element& e = parent.add_child("packagedElement");
        e.set_attribute("xmi:type", "uml:CommunicationPath");
        e.set_attribute("xmi:id", "bus." + bus->name());
        e.set_attribute("name", bus->name());
        for (const NodeInstance* n : bus->nodes()) {
            xml::Element& ee = e.add_child("end");
            ee.set_attribute("node", node_id(*n));
        }
    }
    std::size_t index = 0;
    for (const Deployment& dep : dd.deployments()) {
        xml::Element& e = parent.add_child("packagedElement");
        e.set_attribute("xmi:type", "uml:Deployment");
        e.set_attribute("xmi:id", "dep." + std::to_string(index++));
        e.set_attribute("deployedArtifact", object_id(*dep.artifact));
        e.set_attribute("location", node_id(*dep.node));
    }
}

void write_state(xml::Element& parent, const StateMachine& m, const State& s) {
    xml::Element& e = parent.add_child("subvertex");
    e.set_attribute("xmi:type", "uml:State");
    e.set_attribute("xmi:id", state_id(m, s));
    e.set_attribute("name", s.name());
    if (!s.entry_action().empty()) e.set_attribute("entry", s.entry_action());
    if (!s.exit_action().empty()) e.set_attribute("exit", s.exit_action());
    if (s.initial_substate())
        e.set_attribute("initial", state_id(m, *s.initial_substate()));
    for (const auto& sub : s.substates()) write_state(e, m, *sub);
}

void write_state_machine(xml::Element& parent, const StateMachine& m) {
    xml::Element& e = parent.add_child("packagedElement");
    e.set_attribute("xmi:type", "uml:StateMachine");
    e.set_attribute("xmi:id", sm_id(m));
    e.set_attribute("name", m.name());
    if (m.initial_state())
        e.set_attribute("initial", state_id(m, *m.initial_state()));
    for (const State* s : m.states()) write_state(e, m, *s);
    std::size_t index = 0;
    for (const Transition* t : m.transitions()) {
        xml::Element& te = e.add_child("transition");
        te.set_attribute("xmi:id", "tr." + m.name() + "." + std::to_string(index++));
        te.set_attribute("source", state_id(m, *t->source()));
        te.set_attribute("target", state_id(m, *t->target()));
        if (!t->trigger().empty()) te.set_attribute("trigger", t->trigger());
        if (!t->guard().empty()) te.set_attribute("guard", t->guard());
        if (!t->effect().empty()) te.set_attribute("effect", t->effect());
    }
}

// --- reader helpers -----------------------------------------------------------

const std::string& required_attr(const xml::Element& e, std::string_view name) {
    const std::string* v = e.find_attribute(name);
    if (!v)
        throw std::runtime_error("XMI element <" + e.name() +
                                 "> missing required attribute '" +
                                 std::string(name) + "'");
    return *v;
}

}  // namespace

namespace {

void write_activity(xml::Element& parent, const Activity& activity) {
    xml::Element& e = parent.add_child("packagedElement");
    e.set_attribute("xmi:type", "uml:Activity");
    e.set_attribute("xmi:id", "act." + activity.name());
    e.set_attribute("name", activity.name());
    e.set_attribute("performer", object_id(*activity.performer()));
    std::size_t index = 0;
    for (const CallAction* action : activity.actions()) {
        xml::Element& n = e.add_child("node");
        n.set_attribute("xmi:type", "uml:CallOperationAction");
        n.set_attribute("xmi:id",
                        "act." + activity.name() + ".n" + std::to_string(index++));
        n.set_attribute("operation", action->operation());
        n.set_attribute("target", object_id(*action->target()));
        n.set_attribute("dataSize", std::to_string(action->data_size()));
        for (const std::string& var : action->inputs()) {
            xml::Element& pin = n.add_child("pin");
            pin.set_attribute("direction", "in");
            pin.set_attribute("name", var);
        }
        if (!action->output().empty()) {
            xml::Element& pin = n.add_child("pin");
            pin.set_attribute("direction", "out");
            pin.set_attribute("name", action->output());
        }
    }
}

}  // namespace

xml::Document write_xmi(const Model& model, const ActivityRegistry& activities) {
    xml::Document doc = write_xmi(model);
    xml::Element* m = doc.root().first_child("uml:Model");
    for (const Activity* a : activities.activities()) write_activity(*m, *a);
    return doc;
}

std::string to_xmi_string(const Model& model, const ActivityRegistry& activities) {
    return xml::write(write_xmi(model, activities));
}

XmiBundle read_xmi_bundle(const xml::Document& doc) {
    XmiBundle bundle{read_xmi(doc), {}};
    const xml::Element* me = doc.root().first_child("uml:Model");
    for (const xml::Element* e : me->children_named("packagedElement")) {
        if (e->attribute_or("xmi:type", "") != "uml:Activity") continue;
        std::string performer_id = required_attr(*e, "performer");
        // Ids are deterministic ("obj.<name>"); resolve by stripping.
        if (performer_id.rfind("obj.", 0) != 0)
            throw std::runtime_error("malformed activity performer id: " +
                                     performer_id);
        ObjectInstance* performer =
            bundle.model.find_object(performer_id.substr(4));
        if (!performer)
            throw std::runtime_error("activity performer not found: " +
                                     performer_id);
        Activity& activity =
            bundle.activities.add(required_attr(*e, "name"), *performer);
        for (const xml::Element* n : e->children_named("node")) {
            std::string target_id = required_attr(*n, "target");
            if (target_id.rfind("obj.", 0) != 0)
                throw std::runtime_error("malformed action target id: " +
                                         target_id);
            ObjectInstance* target = bundle.model.find_object(target_id.substr(4));
            if (!target)
                throw std::runtime_error("action target not found: " + target_id);
            CallAction& action =
                activity.add_call(required_attr(*n, "operation"), *target);
            std::string ds = n->attribute_or("dataSize", "1");
            try {
                action.data(std::stod(ds));
            } catch (const std::exception&) {
                throw std::runtime_error("action '" + action.operation() +
                                         "' of activity '" + activity.name() +
                                         "' has non-numeric dataSize '" + ds + "'");
            }
            for (const xml::Element* pin : n->children_named("pin")) {
                if (pin->attribute_or("direction", "in") == "in")
                    action.pin_in(required_attr(*pin, "name"));
                else
                    action.pin_out(required_attr(*pin, "name"));
            }
        }
    }
    return bundle;
}

XmiBundle from_xmi_string_bundle(const std::string& text) {
    return read_xmi_bundle(xml::parse(text));
}

xml::Document write_xmi(const Model& model) {
    xml::Document doc("xmi:XMI");
    xml::Element& root = doc.root();
    root.set_attribute("xmi:version", "2.1");
    root.set_attribute("xmlns:xmi", kXmiNs);
    root.set_attribute("xmlns:uml", kUmlNs);
    root.set_attribute("xmlns:SPT", kSptNs);
    root.set_attribute("xmlns:uhcg", kUhcgNs);

    xml::Element& m = root.add_child("uml:Model");
    m.set_attribute("xmi:id", "model." + model.name());
    m.set_attribute("name", model.name());

    for (const Class* c : model.classes()) write_class(m, *c);
    for (const ObjectInstance* o : model.objects()) write_object(m, *o);
    for (const SequenceDiagram* d : model.sequence_diagrams())
        write_interaction(m, *d);
    if (const DeploymentDiagram* dd = model.deployment_or_null())
        write_deployment(m, *dd);
    for (const StateMachine* sm : model.state_machines())
        write_state_machine(m, *sm);

    // Profile applications: one element per stereotype application, keyed
    // by the base element id, in the Eclipse "stereotype block" style.
    std::size_t index = 0;
    for (const ObjectInstance* o : model.objects()) {
        for (Stereotype s : o->stereotypes()) {
            std::string ns = (s == Stereotype::IO) ? "uhcg:" : "SPT:";
            xml::Element& e = root.add_child(ns + std::string(to_string(s)));
            e.set_attribute("xmi:id", "stereo." + std::to_string(index++));
            e.set_attribute("base_InstanceSpecification", object_id(*o));
        }
    }
    if (const DeploymentDiagram* dd = model.deployment_or_null()) {
        for (const NodeInstance* n : dd->nodes()) {
            for (Stereotype s : n->stereotypes()) {
                std::string ns = (s == Stereotype::IO) ? "uhcg:" : "SPT:";
                xml::Element& e = root.add_child(ns + std::string(to_string(s)));
                e.set_attribute("xmi:id", "stereo." + std::to_string(index++));
                e.set_attribute("base_Node", node_id(*n));
            }
        }
    }
    return doc;
}

std::string to_xmi_string(const Model& model) { return xml::write(write_xmi(model)); }

void save_xmi(const Model& model, const std::string& path) {
    xml::write_file(write_xmi(model), path);
}

namespace {

/// Recovering reader context: resolves attributes and references, reporting
/// a diagnostic (with the element's source position) instead of throwing.
/// Callers test the returned pointer and skip the element on nullptr.
struct Reader {
    diag::DiagnosticEngine& engine;
    std::string file;
    std::set<std::string> ids;  // every xmi:id indexed so far

    diag::SourceLocation loc(const xml::Element& e) const {
        return {file, e.source_line(), e.source_column()};
    }

    const std::string* attr(const xml::Element& e, std::string_view name) {
        const std::string* v = e.find_attribute(name);
        if (!v)
            engine.error(diag::codes::kXmiMissingAttribute,
                         "XMI element <" + e.name() +
                             "> missing required attribute '" + std::string(name) +
                             "'",
                         loc(e));
        return v;
    }

    /// Reads an xmi:id, reporting duplicates (last definition wins).
    const std::string* id_attr(const xml::Element& e) {
        const std::string* v = attr(e, "xmi:id");
        if (v && !ids.insert(*v).second)
            engine.error(diag::codes::kXmiDuplicateId,
                         "duplicate xmi:id '" + *v + "' on <" + e.name() + ">",
                         loc(e));
        return v;
    }

    double number_or(const xml::Element& e, std::string_view name,
                     double fallback) {
        const std::string* v = e.find_attribute(name);
        if (!v) return fallback;
        try {
            std::size_t used = 0;
            double parsed = std::stod(*v, &used);
            if (used != v->size()) throw std::invalid_argument(*v);
            return parsed;
        } catch (const std::exception&) {
            engine.error(diag::codes::kXmiBadValue,
                         "attribute '" + std::string(name) + "' on <" + e.name() +
                             "> is not a number (got '" + *v + "')",
                         loc(e));
            return fallback;
        }
    }

    template <typename Map>
    typename Map::mapped_type resolve(const Map& map, const std::string& ref,
                                      const xml::Element& e,
                                      std::string_view what) {
        auto it = map.find(ref);
        if (it != map.end()) return it->second;
        engine.error(diag::codes::kXmiDanglingReference,
                     std::string(what) + " reference '" + ref + "' on <" +
                         e.name() + "> does not resolve",
                     loc(e));
        return nullptr;
    }
};

}  // namespace

Model read_xmi(const xml::Document& doc, diag::DiagnosticEngine& engine,
               const std::string& file) {
    obs::ObsSpan span("uml.xmi-read");
    Reader rd{engine, file, {}};
    const xml::Element& root = doc.root();
    if (root.name() != "xmi:XMI") {
        engine.report(diag::Severity::Fatal, diag::codes::kXmiNotXmi,
                      "not an XMI document (root is <" + root.name() + ">)",
                      rd.loc(root));
        return Model("invalid");
    }
    const xml::Element* me = root.first_child("uml:Model");
    if (!me) {
        engine.report(diag::Severity::Fatal, diag::codes::kXmiNoModel,
                      "XMI document has no uml:Model", rd.loc(root));
        return Model("invalid");
    }

    static obs::Counter& models_read = obs::counter("uml.models_read");
    models_read.add(1);
    Model model(me->attribute_or("name", "unnamed"));
    std::map<std::string, Class*> classes_by_id;
    std::map<std::string, ObjectInstance*> objects_by_id;
    std::map<std::string, NodeInstance*> nodes_by_id;

    auto type_of = [](const xml::Element& e) { return e.attribute_or("xmi:type", ""); };

    // Pass 1: classes (operations resolve nothing external).
    for (const xml::Element* e : me->children_named("packagedElement")) {
        if (type_of(*e) != "uml:Class") continue;
        const std::string* name = rd.attr(*e, "name");
        const std::string* id = rd.id_attr(*e);
        if (!name || !id) continue;
        Class& c = model.add_class(*name);
        c.set_active(e->attribute_or("isActive", "false") == "true");
        classes_by_id[*id] = &c;
        for (const xml::Element* oe : e->children_named("ownedOperation")) {
            const std::string* op_name = rd.attr(*oe, "name");
            if (!op_name) continue;
            Operation& op = c.add_operation(*op_name);
            for (const xml::Element* pe : oe->children_named("ownedParameter")) {
                const std::string* p_name = rd.attr(*pe, "name");
                if (!p_name) continue;
                Parameter p;
                p.name = *p_name;
                p.type = pe->attribute_or("type", "double");
                auto dir = direction_from_string(pe->attribute_or("direction", "in"));
                if (!dir) {
                    engine.error(diag::codes::kXmiBadValue,
                                 "bad parameter direction '" +
                                     pe->attribute_or("direction", "") + "' on " +
                                     op.name() + "." + p.name,
                                 rd.loc(*pe));
                    continue;
                }
                p.direction = *dir;
                op.add_parameter(std::move(p));
            }
            if (const xml::Element* be = oe->first_child("ownedComment"))
                op.set_body(be->text_content());
        }
    }

    // Pass 2: instances and nodes.
    for (const xml::Element* e : me->children_named("packagedElement")) {
        std::string type = type_of(*e);
        if (type == "uml:InstanceSpecification") {
            Class* classifier = nullptr;
            if (const std::string* cid = e->find_attribute("classifier")) {
                classifier = rd.resolve(classes_by_id, *cid, *e, "classifier");
                if (!classifier) continue;
            }
            const std::string* name = rd.attr(*e, "name");
            const std::string* id = rd.id_attr(*e);
            if (!name || !id) continue;
            objects_by_id[*id] = &model.add_object(*name, classifier);
        } else if (type == "uml:Node") {
            const std::string* name = rd.attr(*e, "name");
            const std::string* id = rd.id_attr(*e);
            if (!name || !id) continue;
            nodes_by_id[*id] = &model.deployment().add_node(*name);
        }
    }

    // Pass 3: everything that cross-references instances/nodes.
    for (const xml::Element* e : me->children_named("packagedElement")) {
        std::string type = type_of(*e);
        if (type == "uml:CommunicationPath") {
            const std::string* name = rd.attr(*e, "name");
            if (!name) continue;
            Bus& bus = model.deployment().add_bus(*name);
            for (const xml::Element* ee : e->children_named("end")) {
                const std::string* node_ref = rd.attr(*ee, "node");
                if (!node_ref) continue;
                if (NodeInstance* n = rd.resolve(nodes_by_id, *node_ref, *ee, "bus end"))
                    bus.connect(*n);
            }
        } else if (type == "uml:Deployment") {
            const std::string* art = rd.attr(*e, "deployedArtifact");
            const std::string* locn = rd.attr(*e, "location");
            if (!art || !locn) continue;
            ObjectInstance* artifact =
                rd.resolve(objects_by_id, *art, *e, "deployment artifact");
            NodeInstance* node = rd.resolve(nodes_by_id, *locn, *e, "deployment node");
            if (artifact && node) model.deployment().deploy(*artifact, *node);
        } else if (type == "uml:Interaction") {
            const std::string* name = rd.attr(*e, "name");
            if (!name) continue;
            SequenceDiagram& d = model.add_sequence_diagram(*name);
            std::map<std::string, Lifeline*> lifelines_by_id;
            for (const xml::Element* le : e->children_named("lifeline")) {
                const std::string* rep = rd.attr(*le, "represents");
                const std::string* id = rd.id_attr(*le);
                if (!rep || !id) continue;
                ObjectInstance* obj =
                    rd.resolve(objects_by_id, *rep, *le, "lifeline represents");
                if (obj) lifelines_by_id[*id] = &d.add_lifeline(*obj);
            }
            for (const xml::Element* msg : e->children_named("message")) {
                const std::string* send = rd.attr(*msg, "sendLifeline");
                const std::string* recv = rd.attr(*msg, "receiveLifeline");
                const std::string* op = rd.attr(*msg, "name");
                if (!send || !recv || !op) continue;
                Lifeline* from = rd.resolve(lifelines_by_id, *send, *msg, "sender");
                Lifeline* to = rd.resolve(lifelines_by_id, *recv, *msg, "receiver");
                if (!from || !to) continue;
                // A message from a lifeline to itself would become a
                // self-referential channel — a communication the mapping
                // cannot realize (a FIFO needs distinct endpoints). Report
                // and drop it; the rest of the diagram still loads.
                if (from == to) {
                    rd.engine.error(
                        diag::codes::kXmiBadValue,
                        "message '" + *op + "' in interaction '" + *name +
                            "' sends and receives on the same lifeline — "
                            "self-referential channels are not realizable",
                        rd.loc(*msg));
                    continue;
                }
                Message& m = d.add_message(*from, *to, *op);
                if (const std::string* r = msg->find_attribute("result"))
                    m.set_result_name(*r);
                m.set_data_size(rd.number_or(*msg, "dataSize", m.data_size()));
                for (const xml::Element* ae : msg->children_named("argument"))
                    if (const std::string* an = rd.attr(*ae, "name"))
                        m.add_argument(*an);
            }
        } else if (type == "uml:StateMachine") {
            const std::string* name = rd.attr(*e, "name");
            if (!name) continue;
            StateMachine& sm = model.add_state_machine(*name);
            // Recursively read states, deferring `initial` resolution until
            // all states exist.
            std::vector<std::pair<State*, std::string>> pending_initial;
            std::string machine_initial = e->attribute_or("initial", "");
            std::map<std::string, State*> states_by_id;
            auto read_states = [&](const xml::Element& parent_elem, State* parent,
                                   auto&& self) -> void {
                for (const xml::Element* se : parent_elem.children_named("subvertex")) {
                    const std::string* s_name = rd.attr(*se, "name");
                    const std::string* s_id = rd.id_attr(*se);
                    if (!s_name || !s_id) continue;
                    State& s = parent ? parent->add_substate(*s_name)
                                      : sm.add_state(*s_name);
                    states_by_id[*s_id] = &s;
                    s.set_entry_action(se->attribute_or("entry", ""));
                    s.set_exit_action(se->attribute_or("exit", ""));
                    if (const std::string* init = se->find_attribute("initial"))
                        pending_initial.emplace_back(&s, *init);
                    self(*se, &s, self);
                }
            };
            read_states(*e, nullptr, read_states);
            for (auto& [state, init_id] : pending_initial) {
                if (State* init = rd.resolve(states_by_id, init_id, *e,
                                             "initial substate"))
                    state->set_initial_substate(*init);
            }
            if (!machine_initial.empty()) {
                if (State* init = rd.resolve(states_by_id, machine_initial, *e,
                                             "initial state"))
                    sm.set_initial_state(*init);
            }
            for (const xml::Element* te : e->children_named("transition")) {
                const std::string* src = rd.attr(*te, "source");
                const std::string* tgt = rd.attr(*te, "target");
                if (!src || !tgt) continue;
                State* source = rd.resolve(states_by_id, *src, *te, "transition source");
                State* target = rd.resolve(states_by_id, *tgt, *te, "transition target");
                if (!source || !target) continue;
                Transition& t = sm.add_transition(*source, *target);
                t.set_trigger(te->attribute_or("trigger", ""));
                t.set_guard(te->attribute_or("guard", ""));
                t.set_effect(te->attribute_or("effect", ""));
            }
        }
    }

    // Pass 4: stereotype applications (siblings of uml:Model).
    for (const xml::Element* e : root.child_elements()) {
        std::string name = e->name();
        std::size_t colon = name.find(':');
        if (colon == std::string::npos) continue;
        std::string prefix = name.substr(0, colon);
        if (prefix != "SPT" && prefix != "uhcg") continue;
        auto stereo = stereotype_from_string(name.substr(colon + 1));
        if (!stereo) {
            engine.error(diag::codes::kXmiUnknownStereotype,
                         "unknown stereotype application <" + name + ">",
                         rd.loc(*e));
            continue;
        }
        if (const std::string* base = e->find_attribute("base_InstanceSpecification")) {
            if (ObjectInstance* o =
                    rd.resolve(objects_by_id, *base, *e, "stereotype base object"))
                o->add_stereotype(*stereo);
        } else if (const std::string* nb = e->find_attribute("base_Node")) {
            if (NodeInstance* n =
                    rd.resolve(nodes_by_id, *nb, *e, "stereotype base node"))
                n->add_stereotype(*stereo);
        }
    }

    return model;
}

Model read_xmi(const xml::Document& doc) {
    diag::DiagnosticEngine engine;
    Model model = read_xmi(doc, engine);
    if (engine.has_errors())
        throw std::runtime_error("invalid XMI:\n" + engine.render_text());
    return model;
}

Model from_xmi_string(const std::string& text, diag::DiagnosticEngine& engine,
                      const std::string& file) {
    obs::ObsSpan span("uml.xmi-load");
    try {
        xml::Document doc = xml::parse(text);
        return read_xmi(doc, engine, file);
    } catch (const xml::ParseError& e) {
        engine.report(diag::Severity::Fatal,
                      e.kind() == xml::ParseError::Kind::Depth
                          ? diag::codes::kXmlDepth
                          : diag::codes::kXmlParse,
                      e.detail(), {file, e.line(), e.column()});
        return Model("invalid");
    }
}

Model load_xmi(const std::string& path, diag::DiagnosticEngine& engine) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        engine.report(diag::Severity::Fatal, diag::codes::kXmlUnreadable,
                      "cannot open XMI file: " + path, {path, 0, 0});
        return Model("invalid");
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    engine.register_source(path, buf.str());
    return from_xmi_string(buf.str(), engine, path);
}

Model from_xmi_string(const std::string& text) { return read_xmi(xml::parse(text)); }

Model load_xmi(const std::string& path) { return read_xmi(xml::parse_file(path)); }

}  // namespace uhcg::uml
