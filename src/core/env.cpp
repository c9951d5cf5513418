#include "core/env.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <functional>
#include <map>
#include <mutex>
#include <optional>

namespace mls::core {

namespace {

std::mutex g_mu;
// std::less<> finds a const char* key without building a std::string.
std::map<std::string, std::string, std::less<>>& overrides() {
  static std::map<std::string, std::string, std::less<>> m;
  return m;
}
// overrides().size(), written under g_mu, so a lookup with no override
// set (every read outside tests) takes neither the lock nor the map.
std::atomic<size_t> g_count{0};

std::optional<std::string> lookup(const char* name) {
  if (g_count.load(std::memory_order_acquire) > 0) {
    std::lock_guard<std::mutex> lock(g_mu);
    auto it = overrides().find(name);
    if (it != overrides().end()) return it->second;
  }
  const char* v = std::getenv(name);
  if (!v) return std::nullopt;
  return std::string(v);
}

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return static_cast<char>(std::tolower(c)); });
  return s;
}

}  // namespace

bool Env::flag(const char* name, bool def) {
  const auto v = lookup(name);
  if (!v) return def;
  const std::string s = lower(*v);
  if (s == "1" || s == "true" || s == "on" || s == "yes") return true;
  if (s == "0" || s == "false" || s == "off" || s == "no") return false;
  return def;
}

int64_t Env::integer(const char* name, int64_t def) {
  const auto v = lookup(name);
  if (!v) return def;
  char* end = nullptr;
  const long long parsed = std::strtoll(v->c_str(), &end, 10);
  return (end && *end == '\0' && end != v->c_str()) ? parsed : def;
}

double Env::real(const char* name, double def) {
  const auto v = lookup(name);
  if (!v) return def;
  char* end = nullptr;
  const double parsed = std::strtod(v->c_str(), &end);
  return (end && *end == '\0' && end != v->c_str()) ? parsed : def;
}

std::string Env::str(const char* name, const std::string& def) {
  const auto v = lookup(name);
  return v ? *v : def;
}

void Env::set(const std::string& name, const std::string& value) {
  std::lock_guard<std::mutex> lock(g_mu);
  overrides()[name] = value;
  g_count.store(overrides().size(), std::memory_order_release);
}

void Env::clear(const std::string& name) {
  std::lock_guard<std::mutex> lock(g_mu);
  overrides().erase(name);
  g_count.store(overrides().size(), std::memory_order_release);
}

}  // namespace mls::core
