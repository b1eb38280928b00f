#include "analysis/diagnostics.h"

#include <algorithm>

#include "common/str_util.h"
#include "obs/json.h"

namespace lipstick::analysis {

const char* SeverityToString(Severity severity) {
  switch (severity) {
    case Severity::kNote: return "note";
    case Severity::kWarning: return "warning";
    case Severity::kError: return "error";
  }
  return "unknown";
}

size_t DiagnosticSink::CountAtLeast(Severity severity) const {
  size_t n = 0;
  for (const Diagnostic& d : diags_) {
    if (d.severity >= severity) ++n;
  }
  return n;
}

const Diagnostic* DiagnosticSink::Find(std::string_view code) const {
  for (const Diagnostic& d : diags_) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

namespace {

bool DiagnosticBefore(const Diagnostic& a, const Diagnostic& b) {
  if (a.file != b.file) return a.file < b.file;
  if (a.loc.line != b.loc.line) return a.loc.line < b.loc.line;
  if (a.loc.column != b.loc.column) return a.loc.column < b.loc.column;
  return a.code < b.code;
}

/// Indices of `diags` in render order. Both renderers sort through this
/// (never the member vector), so output is byte-stable no matter what
/// order passes emitted in or whether Sort() ran.
std::vector<size_t> RenderOrder(const std::vector<Diagnostic>& diags) {
  std::vector<size_t> order(diags.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(), [&diags](size_t a, size_t b) {
    return DiagnosticBefore(diags[a], diags[b]);
  });
  return order;
}

}  // namespace

void DiagnosticSink::Sort() {
  std::stable_sort(diags_.begin(), diags_.end(), DiagnosticBefore);
}

std::string DiagnosticSink::RenderText(const std::string& file) const {
  std::string out;
  for (size_t i : RenderOrder(diags_)) {
    const Diagnostic& d = diags_[i];
    const std::string& f = d.file.empty() ? file : d.file;
    if (!f.empty()) {
      out += f;
      out += ':';
    }
    if (d.loc.valid()) {
      out += d.loc.ToString();
      out += ':';
    }
    if (!f.empty() || d.loc.valid()) out += ' ';
    out += SeverityToString(d.severity);
    out += ": ";
    out += d.message;
    out += " [";
    out += d.code;
    out += "]\n";
    if (!d.note.empty()) {
      out += "    note: ";
      out += d.note;
      out += '\n';
    }
  }
  return out;
}

namespace {

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  obs::JsonEscape(s, out);
  out->push_back('"');
}

}  // namespace

std::string DiagnosticSink::RenderJson(const std::string& file) const {
  std::string out = "[";
  bool first = true;
  for (size_t i : RenderOrder(diags_)) {
    const Diagnostic& d = diags_[i];
    const std::string& f = d.file.empty() ? file : d.file;
    if (!first) out += ",";
    first = false;
    out += "\n  {\"code\": ";
    AppendJsonString(&out, d.code);
    out += ", \"severity\": ";
    AppendJsonString(&out, SeverityToString(d.severity));
    if (!f.empty()) {
      out += ", \"file\": ";
      AppendJsonString(&out, f);
    }
    out += StrCat(", \"line\": ", d.loc.line, ", \"column\": ", d.loc.column);
    out += ", \"message\": ";
    AppendJsonString(&out, d.message);
    if (!d.note.empty()) {
      out += ", \"note\": ";
      AppendJsonString(&out, d.note);
    }
    out += "}";
  }
  out += first ? "]\n" : "\n]\n";
  return out;
}

}  // namespace lipstick::analysis
