#include "src/base/bench_json.h"

#include <cstdio>
#include <utility>

#include "src/base/strings.h"

namespace xoar {

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(StrFormat(
              "\\u%04x", static_cast<unsigned>(static_cast<unsigned char>(c))));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonQuote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  AppendJsonString(&out, s);
  return out;
}

BenchJson::BenchJson(std::string_view executable,
                     std::uint64_t sim_time_ns) {
  out_.append("{\n  \"context\": {\n    \"executable\": ");
  AppendJsonString(&out_, executable);
  out_.append(StrFormat(",\n    \"sim_time_ns\": %llu\n  },\n",
                        static_cast<unsigned long long>(sim_time_ns)));
  out_.append("  \"benchmarks\": [\n");
}

void BenchJson::AddMetricFields(std::string_view name,
                                std::string_view run_type,
                                std::string_view fields) {
  std::string row = "{\"name\": ";
  AppendJsonString(&row, name);
  row.append(", \"run_type\": ");
  AppendJsonString(&row, run_type);
  row.append(", ");
  row.append(fields);
  row.push_back('}');
  AddRow(row);
}

void BenchJson::AddMetric(std::string_view name, std::string_view run_type,
                          std::uint64_t value) {
  AddMetricFields(name, run_type,
                  StrFormat("\"value\": %llu",
                            static_cast<unsigned long long>(value)));
}

void BenchJson::AddRow(std::string_view row) {
  out_.append(rows_ == 0 ? "    " : ",\n    ");
  out_.append(row);
  ++rows_;
}

void BenchJson::CloseArray() {
  out_.append(rows_ == 0 ? "  ]" : "\n  ]");
  rows_ = 0;
}

void BenchJson::BeginArray(std::string_view key) {
  CloseArray();
  out_.append(",\n  ");
  AppendJsonString(&out_, key);
  out_.append(": [\n");
}

std::string BenchJson::Finish() {
  CloseArray();
  out_.append("\n}\n");
  return std::move(out_);
}

Status BenchJson::WriteFile(const std::string& path, std::string_view json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return InternalError(StrFormat("cannot open %s for writing", path.c_str()));
  }
  const std::size_t written = std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  if (written != json.size()) {
    return InternalError(StrFormat("short write to %s", path.c_str()));
  }
  return Status::Ok();
}

}  // namespace xoar
