#include "smilab/cli/options.h"

#include <cmath>
#include <cstdlib>
#include <stdexcept>

namespace smilab {

std::optional<Options> Options::parse(int argc, const char* const* argv,
                                      std::string* error) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) == 0) {
      const std::string body = arg.substr(2);
      if (body.empty()) {
        if (error) *error = "empty flag '--'";
        return std::nullopt;
      }
      const auto eq = body.find('=');
      if (eq == std::string::npos) {
        options.values_[body] = "true";
      } else if (eq == 0) {
        if (error) *error = "flag with empty name: '" + arg + "'";
        return std::nullopt;
      } else {
        options.values_[body.substr(0, eq)] = body.substr(eq + 1);
      }
    } else if (options.command_.empty()) {
      options.command_ = arg;
    } else {
      if (error) *error = "unexpected positional argument '" + arg + "'";
      return std::nullopt;
    }
  }
  return options;
}

std::string Options::get(const std::string& key,
                         const std::string& fallback) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  return it == values_.end() ? fallback : it->second;
}

long long Options::get_int(const std::string& key, long long fallback,
                           std::string* error) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const long long value = std::strtoll(it->second.c_str(), &end, 10);
  if (end == it->second.c_str() || *end != '\0') {
    if (error) *error = "flag --" + key + " expects an integer, got '" +
                        it->second + "'";
    return fallback;
  }
  return value;
}

double Options::get_double(const std::string& key, double fallback,
                           std::string* error) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  char* end = nullptr;
  const double value = std::strtod(it->second.c_str(), &end);
  if (end == it->second.c_str() || *end != '\0' || !std::isfinite(value)) {
    if (error) *error = "flag --" + key + " expects a finite number, got '" +
                        it->second + "'";
    return fallback;
  }
  return value;
}

bool parse_spec_fields(const std::string& spec, const char* flag,
                       std::vector<double>* out, std::size_t expected,
                       std::string* error) {
  out->clear();
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    const std::size_t colon = spec.find(':', pos);
    const std::string field =
        spec.substr(pos, colon == std::string::npos ? colon : colon - pos);
    try {
      std::size_t used = 0;
      const double value = std::stod(field, &used);
      if (used != field.size() || !std::isfinite(value)) {
        throw std::invalid_argument(field);
      }
      out->push_back(value);
    } catch (const std::exception&) {
      *error = std::string("--") + flag + ": bad number '" + field + "' in '" +
               spec + "'";
      return false;
    }
    if (colon == std::string::npos) break;
    pos = colon + 1;
  }
  if (out->size() != expected) {
    *error = std::string("--") + flag + ": expected " +
             std::to_string(expected) + " ':'-separated fields, got " +
             std::to_string(out->size()) + " in '" + spec + "'";
    return false;
  }
  return true;
}

bool Options::get_bool(const std::string& key, bool fallback) const {
  consumed_[key] = true;
  const auto it = values_.find(key);
  if (it == values_.end()) return fallback;
  return it->second != "false" && it->second != "0";
}

std::vector<std::string> Options::unconsumed() const {
  std::vector<std::string> extra;
  for (const auto& [key, value] : values_) {
    if (!consumed_.contains(key)) extra.push_back(key);
  }
  return extra;
}

}  // namespace smilab
