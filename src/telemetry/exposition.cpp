#include "telemetry/exposition.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <ostream>
#include <sstream>

namespace topk::telemetry {

namespace {

std::string format_value(double value) {
  if (std::isnan(value)) {
    return "NaN";
  }
  if (std::isinf(value)) {
    return value > 0 ? "+Inf" : "-Inf";
  }
  // Counters are integral doubles in snapshots — print them without a
  // fractional part so scrapes diff cleanly.
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::ostringstream out;
    out.precision(15);
    out << value;
    return out.str();
  }
  std::ostringstream out;
  out.precision(std::numeric_limits<double>::max_digits10);
  out << value;
  return out.str();
}

/// Bucket-bound labels use the shortest precision that still
/// round-trips typical exponential ladders ("2.5e-05", not
/// "2.5000000000000001e-05") — le values are identity labels, and
/// every series of a family renders them through this one path.
std::string format_le(double bound) {
  std::ostringstream out;
  out.precision(12);
  out << bound;
  return out.str();
}

/// Prometheus label-value escaping: backslash, double quote, newline.
std::string label_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Prometheus HELP escaping: backslash and newline only.
std::string help_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  return out;
}

/// Renders `{a="1",b="2"}` (empty string for no labels); `extra` is an
/// already-rendered label pair appended last (the histogram `le`).
std::string label_block(const Labels& labels, const std::string& extra = "") {
  if (labels.empty() && extra.empty()) {
    return "";
  }
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) {
      out += ",";
    }
    first = false;
    out += name + "=\"" + label_escape(value) + "\"";
  }
  if (!extra.empty()) {
    if (!first) {
      out += ",";
    }
    out += extra;
  }
  out += "}";
  return out;
}

void write_labels_json(std::ostream& out, const Labels& labels) {
  out << "{";
  bool first = true;
  for (const auto& [name, value] : labels) {
    if (!first) {
      out << ",";
    }
    first = false;
    out << "\"" << json_escape(name) << "\":\"" << json_escape(value) << "\"";
  }
  out << "}";
}

}  // namespace

std::string json_escape(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '"':
        out += "\\\"";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void write_prometheus(std::ostream& out,
                      const std::vector<FamilySnapshot>& families) {
  for (const FamilySnapshot& family : families) {
    if (!family.help.empty()) {
      out << "# HELP " << family.name << " " << help_escape(family.help)
          << "\n";
    }
    out << "# TYPE " << family.name << " " << to_string(family.type) << "\n";
    for (const SeriesSnapshot& series : family.series) {
      if (family.type != MetricType::kHistogram) {
        out << family.name << label_block(series.labels) << " "
            << format_value(series.value) << "\n";
        continue;
      }
      // Cumulative le buckets, closing with the mandatory +Inf bucket
      // equal to the total count.
      std::uint64_t cumulative = 0;
      const HistogramSnapshot& hist = series.histogram;
      for (std::size_t b = 0; b < hist.bounds.size(); ++b) {
        cumulative += hist.counts[b];
        out << family.name << "_bucket"
            << label_block(series.labels,
                           "le=\"" + format_le(hist.bounds[b]) + "\"")
            << " " << cumulative << "\n";
      }
      out << family.name << "_bucket"
          << label_block(series.labels, "le=\"+Inf\"") << " " << hist.count
          << "\n";
      out << family.name << "_sum" << label_block(series.labels) << " "
          << format_value(hist.sum) << "\n";
      out << family.name << "_count" << label_block(series.labels) << " "
          << hist.count << "\n";
    }
  }
}

void write_json(std::ostream& out,
                const std::vector<FamilySnapshot>& families) {
  out << "{\"metrics\":[";
  bool first_family = true;
  for (const FamilySnapshot& family : families) {
    if (!first_family) {
      out << ",";
    }
    first_family = false;
    out << "{\"name\":\"" << json_escape(family.name) << "\",\"type\":\""
        << to_string(family.type) << "\",\"help\":\""
        << json_escape(family.help) << "\",\"series\":[";
    bool first_series = true;
    for (const SeriesSnapshot& series : family.series) {
      if (!first_series) {
        out << ",";
      }
      first_series = false;
      out << "{\"labels\":";
      write_labels_json(out, series.labels);
      if (family.type != MetricType::kHistogram) {
        out << ",\"value\":" << format_value(series.value) << "}";
        continue;
      }
      const HistogramSnapshot& hist = series.histogram;
      out << ",\"count\":" << hist.count << ",\"sum\":"
          << format_value(hist.sum) << ",\"buckets\":[";
      for (std::size_t b = 0; b < hist.counts.size(); ++b) {
        if (b > 0) {
          out << ",";
        }
        const std::string le =
            b < hist.bounds.size() ? format_le(hist.bounds[b]) : "+Inf";
        out << "{\"le\":\"" << le << "\",\"count\":" << hist.counts[b] << "}";
      }
      out << "]}";
    }
    out << "]}";
  }
  out << "]}\n";
}

}  // namespace topk::telemetry
