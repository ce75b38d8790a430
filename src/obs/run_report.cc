#include "obs/run_report.h"

#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "obs/export.h"
#include "obs/json.h"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/utsname.h>
#include <unistd.h>
#define HGMINE_HAVE_UNAME 1
#endif

namespace hgm {
namespace obs {

std::string Fnv1a64::HexDigest() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(h_));
  return std::string(buf);
}

std::string JsonEscapeString(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(c));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

HostInfo CollectHostInfo() {
  HostInfo h;
  h.nproc = std::thread::hardware_concurrency();
#if defined(HGMINE_HAVE_UNAME)
  h.page_kb = ::sysconf(_SC_PAGESIZE) / 1024;
  struct utsname un;
  if (::uname(&un) == 0) {
    h.os = un.sysname;
    h.kernel = un.release;
  }
#else
  h.page_kb = 4;
  h.os = "unknown";
#endif
  return h;
}

BuildInfo CollectBuildInfo() {
  BuildInfo b;
#if defined(__clang__)
  b.compiler = "clang " + std::to_string(__clang_major__) + "." +
               std::to_string(__clang_minor__) + "." +
               std::to_string(__clang_patchlevel__);
#elif defined(__GNUC__)
  b.compiler = "gcc " + std::to_string(__GNUC__) + "." +
               std::to_string(__GNUC_MINOR__) + "." +
               std::to_string(__GNUC_PATCHLEVEL__);
#else
  b.compiler = "unknown";
#endif
#if defined(HGMINE_BUILD_TYPE)
  b.build_type = HGMINE_BUILD_TYPE;
#else
  b.build_type = "unknown";
#endif
#if defined(HGMINE_GIT_REV)
  b.git_rev = HGMINE_GIT_REV;
#else
  b.git_rev = "unknown";
#endif
#if defined(HGMINE_AUDIT)
  b.audit = true;
#endif
#if defined(__SANITIZE_ADDRESS__)
  b.sanitizer = "address";
#elif defined(__SANITIZE_THREAD__)
  b.sanitizer = "thread";
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
  b.sanitizer = "address";
#elif __has_feature(thread_sanitizer)
  b.sanitizer = "thread";
#endif
#endif
  if (b.sanitizer.empty()) b.sanitizer = "none";
  return b;
}

void CaptureRuntime(RunReport* report) {
  report->phases = Tracer::Global().PhaseTotals();
  report->memory = ReadMemory();
  if (AllocationCountingAvailable()) report->alloc = GlobalAllocStats();
  if (MetricsOn()) report->metrics = MetricsRegistry::Global().Snapshot();
  report->flight = FlightRecorder::Global().Snapshot();
}

Status WriteRunReport(const RunReport& report, const std::string& dest) {
  if (dest == "-") {
    report.WriteJson(std::cout);
    return Status::OK();
  }
  std::ofstream out(dest, std::ios::binary | std::ios::trunc);
  if (!out) {
    return Status::IOError("cannot write run report to " + dest);
  }
  report.WriteJson(out);
  return Status::OK();
}

void RunReport::AddConfig(const std::string& key, uint64_t value) {
  config.emplace_back(key, std::to_string(value));
}

void RunReport::AddConfig(const std::string& key, double value) {
  std::ostringstream os;
  os << value;
  config.emplace_back(key, os.str());
}

void RunReport::AddConfig(const std::string& key, bool value) {
  config.emplace_back(key, value ? "true" : "false");
}

void RunReport::AddConfig(const std::string& key, const std::string& value) {
  config.emplace_back(key, "\"" + JsonEscapeString(value) + "\"");
}

void RunReport::WriteJson(std::ostream& os) const {
  os << "{\n";
  os << "  \"schema\": \"" << kSchemaName << "\",\n";
  os << "  \"schema_version\": " << kSchemaVersion << ",\n";
  os << "  \"kind\": \"" << JsonEscapeString(kind) << "\",\n";
  os << "  \"name\": \"" << JsonEscapeString(name) << "\",\n";
  os << "  \"host\": {\"nproc\": " << host.nproc
     << ", \"page_kb\": " << host.page_kb << ", \"os\": \""
     << JsonEscapeString(host.os) << "\", \"kernel\": \""
     << JsonEscapeString(host.kernel) << "\"},\n";
  os << "  \"build\": {\"compiler\": \"" << JsonEscapeString(build.compiler)
     << "\", \"build_type\": \"" << JsonEscapeString(build.build_type)
     << "\", \"git_rev\": \"" << JsonEscapeString(build.git_rev)
     << "\", \"audit\": " << (build.audit ? "true" : "false")
     << ", \"sanitizer\": \"" << JsonEscapeString(build.sanitizer)
     << "\"},\n";
  os << "  \"args\": [";
  for (size_t i = 0; i < args.size(); ++i) {
    os << (i > 0 ? ", " : "") << "\"" << JsonEscapeString(args[i]) << "\"";
  }
  os << "],\n";
  if (!config.empty()) {
    os << "  \"config\": {";
    for (size_t i = 0; i < config.size(); ++i) {
      os << (i > 0 ? ", " : "") << "\"" << JsonEscapeString(config[i].first)
         << "\": " << config[i].second;
    }
    os << "},\n";
  }
  if (dataset) {
    os << "  \"dataset\": {\"path\": \"" << JsonEscapeString(dataset->path)
       << "\", \"rows\": " << dataset->rows
       << ", \"items\": " << dataset->items << ", \"fingerprint\": \""
       << JsonEscapeString(dataset->fingerprint) << "\"},\n";
  }
  os << "  \"wall_ms\": " << wall_ms << ",\n";
  if (!phases.empty()) {
    os << "  \"phases\": [\n";
    for (size_t i = 0; i < phases.size(); ++i) {
      os << "    {\"name\": \"" << JsonEscapeString(phases[i].name)
         << "\", \"count\": " << phases[i].count
         << ", \"total_us\": " << phases[i].total_us << "}"
         << (i + 1 < phases.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
  }
  os << "  \"memory\": {\"rss_kb\": " << memory.rss_kb
     << ", \"peak_rss_kb\": " << memory.peak_rss_kb
     << ", \"vm_kb\": " << memory.vm_kb;
  if (alloc) {
    os << ", \"alloc\": {\"allocations\": " << alloc->allocations
       << ", \"deallocations\": " << alloc->deallocations
       << ", \"bytes\": " << alloc->bytes << "}";
  }
  os << "},\n";
  if (budget) {
    os << "  \"budget\": {\"stop_reason\": \""
       << JsonEscapeString(budget->stop_reason)
       << "\", \"queries\": " << budget->queries
       << ", \"deadline_ms\": " << budget->deadline_ms
       << ", \"max_queries\": " << budget->max_queries << "},\n";
  }
  if (checkpoint) {
    os << "  \"checkpoint\": {\"resumed_from\": \""
       << JsonEscapeString(checkpoint->resumed_from)
       << "\", \"written_to\": \""
       << JsonEscapeString(checkpoint->written_to) << "\", \"kind\": \""
       << JsonEscapeString(checkpoint->kind) << "\"},\n";
  }
  if (!bounds.empty()) {
    os << "  \"bounds\": {";
    for (size_t i = 0; i < bounds.size(); ++i) {
      os << (i > 0 ? ",\n    " : "\n    ") << "\""
         << JsonEscapeString(bounds[i].first) << "\": ";
      bounds[i].second.WriteJson(os, 4);
    }
    os << "\n  },\n";
  }
  if (!flight.empty()) {
    os << "  \"flight\": [\n";
    for (size_t i = 0; i < flight.size(); ++i) {
      const FlightEvent& e = flight[i];
      os << "    {\"seq\": " << e.seq << ", \"ts_us\": " << e.ts_us
         << ", \"tid\": " << e.tid << ", \"type\": \""
         << FlightEventTypeName(e.type) << "\", \"label\": \"" << e.label
         << "\", \"a\": " << e.a << ", \"b\": " << e.b << "}"
         << (i + 1 < flight.size() ? "," : "") << "\n";
    }
    os << "  ],\n";
  }
  if (metrics) {
    os << "  \"metrics\": ";
    WriteJsonSnapshot(*metrics, os, 2);
    os << ",\n";
  }
  os << "  \"payload\": {";
  if (!payload_members.empty()) os << payload_members;
  os << "}\n}\n";
}

Status ValidateRunReportJson(const std::string& json) {
  Result<JsonValue> parsed = ParseJson(json);
  if (!parsed.ok()) return parsed.status();
  const JsonValue& root = parsed.value();
  if (!root.is_object()) {
    return Status::InvalidArgument("run report: root is not an object");
  }
  const JsonValue* schema = root.Find("schema");
  if (schema == nullptr || !schema->is_string() ||
      schema->AsString() != RunReport::kSchemaName) {
    return Status::InvalidArgument("run report: missing/wrong \"schema\"");
  }
  const JsonValue* version = root.Find("schema_version");
  if (version == nullptr || !version->is_number()) {
    return Status::InvalidArgument(
        "run report: missing \"schema_version\"");
  }
  if (version->AsInt() > RunReport::kSchemaVersion || version->AsInt() < 1) {
    return Status::InvalidArgument(
        "run report: unsupported schema_version " +
        std::to_string(version->AsInt()));
  }
  for (const char* key : {"kind", "name"}) {
    const JsonValue* v = root.Find(key);
    if (v == nullptr || !v->is_string()) {
      return Status::InvalidArgument(
          std::string("run report: missing string \"") + key + "\"");
    }
  }
  const JsonValue* host = root.Find("host");
  if (host == nullptr || !host->is_object() ||
      host->Find("nproc") == nullptr) {
    return Status::InvalidArgument("run report: missing host.nproc");
  }
  const JsonValue* build = root.Find("build");
  if (build == nullptr || !build->is_object() ||
      build->Find("git_rev") == nullptr) {
    return Status::InvalidArgument("run report: missing build.git_rev");
  }
  const JsonValue* wall = root.Find("wall_ms");
  if (wall == nullptr || !wall->is_number()) {
    return Status::InvalidArgument("run report: missing numeric wall_ms");
  }
  const JsonValue* payload = root.Find("payload");
  if (payload == nullptr || !payload->is_object()) {
    return Status::InvalidArgument("run report: missing object payload");
  }
  return Status::OK();
}

}  // namespace obs
}  // namespace hgm
