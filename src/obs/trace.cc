#include "obs/trace.h"

#include <sstream>

namespace dtl::obs {

namespace {

void Accumulate(fs::IoSnapshot* into, const fs::IoSnapshot& d) {
  into->hdfs_bytes_read += d.hdfs_bytes_read;
  into->hdfs_bytes_written += d.hdfs_bytes_written;
  into->hdfs_files_created += d.hdfs_files_created;
  into->hdfs_seeks += d.hdfs_seeks;
  into->hbase_bytes_read += d.hbase_bytes_read;
  into->hbase_bytes_written += d.hbase_bytes_written;
  into->hbase_read_ops += d.hbase_read_ops;
  into->hbase_write_ops += d.hbase_write_ops;
}

uint64_t IoBytes(const fs::IoSnapshot& io) {
  return io.hdfs_bytes_read + io.hdfs_bytes_written + io.hbase_bytes_read +
         io.hbase_bytes_written;
}

void RenderNodeText(const TraceNode& node, size_t depth,
                    std::vector<std::string>* lines) {
  std::ostringstream line;
  for (size_t i = 0; i < depth; ++i) line << "  ";
  line << node.name;
  if (!node.detail.empty()) line << "(" << node.detail << ")";
  line << " wall=" << node.stats.wall_seconds * 1e3 << "ms";
  line << " model=" << node.stats.modeled_seconds << "s";
  line << " rows=" << node.stats.rows;
  line << " batches=" << node.stats.batches;
  line << " bytes=" << node.stats.bytes;
  const uint64_t io_bytes = IoBytes(node.stats.io);
  if (io_bytes > 0) line << " io_bytes=" << io_bytes;
  if (node.stats.scan.rows > 0) line << " scan_rows=" << node.stats.scan.rows;
  lines->push_back(line.str());
  for (const auto& child : node.children) {
    RenderNodeText(*child, depth + 1, lines);
  }
}

void RenderNodeJson(const TraceNode& node, std::ostringstream* out) {
  *out << "{\"name\":\"" << node.name << "\"";
  if (!node.detail.empty()) *out << ",\"detail\":\"" << node.detail << "\"";
  *out << ",\"wall_seconds\":" << node.stats.wall_seconds
       << ",\"modeled_seconds\":" << node.stats.modeled_seconds
       << ",\"rows\":" << node.stats.rows << ",\"batches\":" << node.stats.batches
       << ",\"bytes\":" << node.stats.bytes
       << ",\"io\":{\"hdfs_read\":" << node.stats.io.hdfs_bytes_read
       << ",\"hdfs_written\":" << node.stats.io.hdfs_bytes_written
       << ",\"hbase_read\":" << node.stats.io.hbase_bytes_read
       << ",\"hbase_written\":" << node.stats.io.hbase_bytes_written << "}"
       << ",\"scan\":{\"rows\":" << node.stats.scan.rows
       << ",\"bytes\":" << node.stats.scan.bytes
       << ",\"patched\":" << node.stats.scan.patched_rows
       << ",\"masked\":" << node.stats.scan.masked_rows << "}";
  *out << ",\"children\":[";
  bool first = true;
  for (const auto& child : node.children) {
    if (!first) *out << ",";
    first = false;
    RenderNodeJson(*child, out);
  }
  *out << "]}";
}

}  // namespace

TraceNode* TraceNode::AddChild(const char* name_in, std::string detail_in) {
  auto child = std::make_unique<TraceNode>();
  child->name = name_in;
  child->detail = std::move(detail_in);
  TraceNode* raw = child.get();
  children.push_back(std::move(child));
  return raw;
}

const TraceNode* TraceNode::Find(std::string_view name_in) const {
  if (name == name_in) return this;
  for (const auto& child : children) {
    if (const TraceNode* found = child->Find(name_in)) return found;
  }
  return nullptr;
}

std::vector<std::string> Trace::RenderTextLines() const {
  std::vector<std::string> lines;
  if (root != nullptr) RenderNodeText(*root, 0, &lines);
  return lines;
}

std::string Trace::RenderText() const {
  std::ostringstream out;
  for (const auto& line : RenderTextLines()) out << line << "\n";
  return out.str();
}

std::string Trace::RenderJson() const {
  if (root == nullptr) return "null";
  std::ostringstream out;
  RenderNodeJson(*root, &out);
  return out.str();
}

void Tracer::Begin(const char* name) {
  if (active()) return;
  root_ = std::make_unique<TraceNode>();
  root_->name = name;
  stack_.clear();
  stack_.push_back(root_.get());
}

Trace Tracer::End() {
  Trace trace;
  trace.root = std::move(root_);
  stack_.clear();
  return trace;
}

TraceNode* Tracer::AddNode(const char* name, std::string detail,
                           TraceNode* parent) {
  if (!active()) return nullptr;
  if (parent == nullptr) parent = current();
  return parent->AddChild(name, std::move(detail));
}

void Tracer::AddLeaf(const char* name, double wall_seconds) {
  TraceNode* node = AddNode(name);
  if (node != nullptr) node->stats.wall_seconds = wall_seconds;
}

Span::Span(Tracer* tracer, const char* name, std::string detail) {
  if (tracer == nullptr || !tracer->active()) return;
  tracer_ = tracer;
  node_ = tracer->AddNode(name, std::move(detail));
  tracer->stack_.push_back(node_);
  pushed_ = true;
  if (tracer->io_ != nullptr) io_before_ = tracer->io_->Snapshot();
  if (tracer->scan_ != nullptr) scan_before_ = tracer->scan_->Snapshot();
  watch_.Restart();
}

Span::Span(Tracer* tracer, TraceNode* node) {
  if (tracer == nullptr || !tracer->active() || node == nullptr) return;
  tracer_ = tracer;
  node_ = node;
  if (tracer->io_ != nullptr) io_before_ = tracer->io_->Snapshot();
  if (tracer->scan_ != nullptr) scan_before_ = tracer->scan_->Snapshot();
  watch_.Restart();
}

Span::~Span() {
  if (node_ == nullptr) return;
  node_->stats.wall_seconds += watch_.ElapsedSeconds();
  if (tracer_->io_ != nullptr) {
    const fs::IoSnapshot delta = tracer_->io_->Snapshot() - io_before_;
    Accumulate(&node_->stats.io, delta);
    if (tracer_->cluster_ != nullptr) {
      node_->stats.modeled_seconds += tracer_->cluster_->JobSeconds(delta);
    }
  }
  if (tracer_->scan_ != nullptr) {
    node_->stats.scan += tracer_->scan_->Snapshot() - scan_before_;
  }
  if (pushed_ && !tracer_->stack_.empty() && tracer_->stack_.back() == node_) {
    tracer_->stack_.pop_back();
  }
}

}  // namespace dtl::obs
