// expect: none
// as-path: src/online/proxy.cc
// lint-expect: hotpath
//
// Known-bad fixture for webmon_lint rule `hotpath` on the proxy's write
// path: the Submit closure body runs once per ingested event, so copying
// the producer's windows into a per-event std::vector there allocates on
// every submit, the copy the arrival log's fixed-size records exist to
// avoid. Never compiled — consumed by `ctest -R webmon_lint_selftest`.

#include <cstdint>
#include <optional>
#include <tuple>
#include <vector>

namespace webmon {

using Window = std::tuple<uint32_t, int64_t, int64_t>;

struct Proxy {
  struct PendingEvent {
    std::vector<Window> eis;
  };
  std::optional<PendingEvent> MakeSubmitEventLocked(
      const std::vector<Window>& eis, int64_t epoch);
  void Describe(const std::vector<Window>& eis);
};

std::optional<Proxy::PendingEvent> Proxy::MakeSubmitEventLocked(
    const std::vector<Window>& eis, int64_t epoch) {
  if (epoch < 0) return std::nullopt;
  std::vector<Window> raw = eis;  // rule fires: per-event copy
  PendingEvent event;
  event.eis.push_back(raw.front());  // rule fires: unjustified grow
  return event;
}

// Not on the write path: a diagnostic helper may copy.
void Proxy::Describe(const std::vector<Window>& eis) {
  std::vector<Window> copy = eis;
  copy.push_back(eis.front());
}

}  // namespace webmon
