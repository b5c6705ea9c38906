#include "simulink/model.hpp"

#include <algorithm>
#include <stdexcept>

namespace uhcg::simulink {

std::string_view to_string(BlockType type) {
    switch (type) {
        case BlockType::SubSystem: return "SubSystem";
        case BlockType::Inport: return "Inport";
        case BlockType::Outport: return "Outport";
        case BlockType::SFunction: return "S-Function";
        case BlockType::Product: return "Product";
        case BlockType::Sum: return "Sum";
        case BlockType::Gain: return "Gain";
        case BlockType::UnitDelay: return "UnitDelay";
        case BlockType::Constant: return "Constant";
        case BlockType::Scope: return "Scope";
        case BlockType::CommChannel: return "CommChannel";
    }
    return "?";
}

std::optional<BlockType> block_type_from_string(std::string_view name) {
    if (name == "SubSystem") return BlockType::SubSystem;
    if (name == "Inport") return BlockType::Inport;
    if (name == "Outport") return BlockType::Outport;
    if (name == "S-Function") return BlockType::SFunction;
    if (name == "Product") return BlockType::Product;
    if (name == "Sum") return BlockType::Sum;
    if (name == "Gain") return BlockType::Gain;
    if (name == "UnitDelay") return BlockType::UnitDelay;
    if (name == "Constant") return BlockType::Constant;
    if (name == "Scope") return BlockType::Scope;
    if (name == "CommChannel") return BlockType::CommChannel;
    return std::nullopt;
}

std::string_view to_string(CaamRole role) {
    switch (role) {
        case CaamRole::None: return "None";
        case CaamRole::CpuSubsystem: return "CPU-SS";
        case CaamRole::ThreadSubsystem: return "Thread-SS";
        case CaamRole::InterCpuChannel: return "InterCPU";
        case CaamRole::IntraCpuChannel: return "IntraCPU";
    }
    return "?";
}

std::optional<CaamRole> caam_role_from_string(std::string_view name) {
    if (name == "None") return CaamRole::None;
    if (name == "CPU-SS") return CaamRole::CpuSubsystem;
    if (name == "Thread-SS") return CaamRole::ThreadSubsystem;
    if (name == "InterCPU") return CaamRole::InterCpuChannel;
    if (name == "IntraCPU") return CaamRole::IntraCpuChannel;
    return std::nullopt;
}

// --- Block -------------------------------------------------------------------

Block::Block(std::string name, BlockType type, System* parent)
    : name_(std::move(name)), type_(type), parent_(parent) {
    // Sensible default port shapes per type; the mapping resizes as needed.
    switch (type_) {
        case BlockType::Inport: inputs_ = 0; outputs_ = 1; break;
        case BlockType::Outport: inputs_ = 1; outputs_ = 0; break;
        case BlockType::Product:
        case BlockType::Sum: inputs_ = 2; outputs_ = 1; break;
        case BlockType::Gain:
        case BlockType::UnitDelay:
        case BlockType::CommChannel: inputs_ = 1; outputs_ = 1; break;
        case BlockType::Constant: inputs_ = 0; outputs_ = 1; break;
        case BlockType::Scope: inputs_ = 1; outputs_ = 0; break;
        case BlockType::SubSystem:
        case BlockType::SFunction: inputs_ = 0; outputs_ = 0; break;
    }
    lines_ = std::make_unique<Line*[]>(static_cast<std::size_t>(inputs_ + outputs_));
    if (type_ == BlockType::SubSystem)
        system_ = std::make_unique<System>(name_, this,
                                           parent_ ? parent_->model() : nullptr);
}

Block::~Block() = default;

void Block::set_parameter(std::string_view key, std::string_view value) {
    params_.insert_or_assign(std::string(key), std::string(value));
}

const std::string* Block::find_parameter(std::string_view key) const {
    auto it = params_.find(key);
    return it == params_.end() ? nullptr : &it->second;
}

std::string Block::parameter_or(std::string_view key, std::string fallback) const {
    if (const std::string* v = find_parameter(key)) return *v;
    return fallback;
}

int Block::port_number() const {
    const std::string* text = find_parameter("Port");
    if (!text) return 1;
    try {
        std::size_t used = 0;
        int port = std::stoi(*text, &used);
        if (used == text->size()) return port;
    } catch (const std::logic_error&) {
    }
    throw std::invalid_argument("block '" + path() +
                                "' has a non-integer Port parameter '" + *text +
                                "'");
}

std::string Block::path() const {
    std::string path = name_;
    for (const System* s = parent_; s && s->owner_block();
         s = s->owner_block()->parent())
        path = s->owner_block()->name() + "/" + path;
    return path;
}

namespace {

/// The slot of a 1-based port among `count` slots; nullptr when out of range.
Line* slot(Line* const* slots, int count, int port) {
    return port >= 1 && port <= count ? slots[port - 1] : nullptr;
}

}  // namespace

void Block::set_ports(int inputs, int outputs) {
    if (inputs < 0 || outputs < 0)
        throw std::invalid_argument("negative port count on block " + name_);
    auto connected = [](const Line* l) { return l != nullptr; };
    if (std::any_of(in_lines() + std::min(inputs, inputs_), in_lines() + inputs_,
                    connected) ||
        std::any_of(out_lines() + std::min(outputs, outputs_),
                    out_lines() + outputs_, connected))
        throw std::invalid_argument("cannot drop a connected port of block " +
                                    name_);
    auto lines = std::make_unique<Line*[]>(static_cast<std::size_t>(inputs) +
                                           static_cast<std::size_t>(outputs));
    std::copy_n(in_lines(), std::min(inputs, inputs_), lines.get());
    std::copy_n(out_lines(), std::min(outputs, outputs_), lines.get() + inputs);
    lines_ = std::move(lines);
    inputs_ = inputs;
    outputs_ = outputs;
}

const Line* Block::line_into(int port) const {
    return slot(in_lines(), inputs_, port);
}

const Line* Block::line_from(int port) const {
    return slot(out_lines(), outputs_, port);
}

void Block::set_input_name(int port, std::string name) {
    if (port < 1 || port > inputs_)
        throw std::out_of_range("input port " + std::to_string(port) +
                                " out of range on block " + name_);
    input_names_[port] = std::move(name);
}

void Block::set_output_name(int port, std::string name) {
    if (port < 1 || port > outputs_)
        throw std::out_of_range("output port " + std::to_string(port) +
                                " out of range on block " + name_);
    output_names_[port] = std::move(name);
}

std::string Block::input_name(int port) const {
    auto it = input_names_.find(port);
    return it == input_names_.end() ? std::string() : it->second;
}

std::string Block::output_name(int port) const {
    auto it = output_names_.find(port);
    return it == output_names_.end() ? std::string() : it->second;
}

int Block::input_named(std::string_view name) const {
    for (const auto& [port, n] : input_names_)
        if (n == name) return port;
    return 0;
}

int Block::output_named(std::string_view name) const {
    for (const auto& [port, n] : output_names_)
        if (n == name) return port;
    return 0;
}

// --- System ------------------------------------------------------------------

Block& System::add_block(std::string name, BlockType type) {
    if (find_block(name))
        throw std::invalid_argument("duplicate block name '" + name +
                                    "' in system " + name_);
    Block& block =
        *blocks_.emplace_back(std::make_unique<Block>(std::move(name), type, this));
    by_name_.emplace(block.name(), &block);
    return block;
}

Block& System::add_subsystem(std::string name, CaamRole role) {
    Block& b = add_block(std::move(name), BlockType::SubSystem);
    b.set_role(role);
    return b;
}

Block* System::find_block(std::string_view name) {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
}

const Block* System::find_block(std::string_view name) const {
    auto it = by_name_.find(name);
    return it == by_name_.end() ? nullptr : it->second;
}

std::string System::unique_name(const std::string& hint) const {
    if (!find_block(hint)) return hint;
    int i = 1;
    while (find_block(hint + "_" + std::to_string(i))) ++i;
    return hint + "_" + std::to_string(i);
}

void System::remove_block(Block& block) {
    auto it = std::find_if(blocks_.begin(), blocks_.end(),
                           [&](const auto& b) { return b.get() == &block; });
    if (it == blocks_.end())
        throw std::invalid_argument("block '" + block.name() +
                                    "' is not in system " + name_);
    // Drop every line endpoint referring to the block first.
    for (int port = 1; port <= block.output_count(); ++port)
        if (Line* line = block.out_lines()[port - 1]) remove_line(*line);
    for (int port = 1; port <= block.input_count(); ++port)
        if (Line* line = block.in_lines()[port - 1])
            disconnect(*line, {&block, port});
    by_name_.erase(block.name());
    blocks_.erase(it);
}

Line& System::add_line(PortRef src, PortRef dst, std::string name) {
    if (!src.block || !dst.block)
        throw std::invalid_argument("line endpoints must reference blocks");
    if (src.block->parent() != this || dst.block->parent() != this)
        throw std::invalid_argument(
            "line endpoints must live in this system (" + name_ + ")");
    if (src.port < 1 || src.port > src.block->output_count())
        throw std::invalid_argument("source port " + std::to_string(src.port) +
                                    " out of range on block " + src.block->name());
    if (dst.port < 1 || dst.port > dst.block->input_count())
        throw std::invalid_argument("destination port " + std::to_string(dst.port) +
                                    " out of range on block " + dst.block->name());
    Line*& into = dst.block->in_lines()[dst.port - 1];
    if (into)
        throw std::invalid_argument("input port " + std::to_string(dst.port) +
                                    " of block " + dst.block->name() +
                                    " is already driven");
    // Simulink semantics: one line per source port; further sinks branch.
    Line*& from = src.block->out_lines()[src.port - 1];
    if (!from) from = lines_.emplace_back(std::make_unique<Line>(src, "")).get();
    if (from->name().empty() && !name.empty()) from->set_name(std::move(name));
    from->dsts_.push_back(dst);
    into = from;
    return *from;
}

Line* System::line_from(const PortRef& src) {
    return src.block && src.block->parent() == this
               ? slot(src.block->out_lines(), src.block->outputs_, src.port)
               : nullptr;
}

const Line* System::line_from(const PortRef& src) const {
    return src.block && src.block->parent() == this
               ? slot(src.block->out_lines(), src.block->outputs_, src.port)
               : nullptr;
}

Line* System::line_into(const PortRef& dst) {
    return dst.block && dst.block->parent() == this
               ? slot(dst.block->in_lines(), dst.block->inputs_, dst.port)
               : nullptr;
}

const Line* System::line_into(const PortRef& dst) const {
    return dst.block && dst.block->parent() == this
               ? slot(dst.block->in_lines(), dst.block->inputs_, dst.port)
               : nullptr;
}

void System::remove_line(Line& line) {
    auto it = std::find_if(lines_.begin(), lines_.end(),
                           [&](const auto& l) { return l.get() == &line; });
    if (it == lines_.end())
        throw std::invalid_argument("line is not in system " + name_);
    const PortRef& src = line.source();
    src.block->out_lines()[src.port - 1] = nullptr;
    for (const PortRef& dst : line.destinations())
        dst.block->in_lines()[dst.port - 1] = nullptr;
    lines_.erase(it);
}

void System::disconnect(Line& line, const PortRef& dst) {
    auto it = std::find(line.dsts_.begin(), line.dsts_.end(), dst);
    if (line.source().block->parent() != this || it == line.dsts_.end())
        throw std::invalid_argument("not a destination of a line in system " +
                                    name_);
    line.dsts_.erase(it);
    dst.block->in_lines()[dst.port - 1] = nullptr;
    if (line.destinations().empty()) remove_line(line);
}

std::size_t System::total_blocks() const {
    std::size_t count = blocks_.size();
    for (const auto& b : blocks_)
        if (b->system()) count += b->system()->total_blocks();
    return count;
}

std::size_t System::total_lines() const {
    std::size_t count = lines_.size();
    for (const auto& b : blocks_)
        if (b->system()) count += b->system()->total_lines();
    return count;
}

// --- Model -----------------------------------------------------------------

Model::Model(std::string name)
    : name_(std::move(name)),
      root_(std::make_unique<System>(name_, nullptr, this)) {}

void Model::reanchor(System& system) {
    system.model_ = this;
    for (Block* b : system.blocks())
        if (b->system()) reanchor(*b->system());
}

Model& Model::operator=(Model&& other) noexcept {
    name_ = std::move(other.name_);
    root_ = std::move(other.root_);
    stop_time = other.stop_time;
    fixed_step = other.fixed_step;
    solver = std::move(other.solver);
    if (root_) reanchor(*root_);  // System back pointers must follow the move
    return *this;
}

}  // namespace uhcg::simulink
