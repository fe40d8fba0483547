// Script catalog: id → ScriptSpec registry shared by the corpus and browser.
#pragma once

#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "script/script_spec.h"

namespace cg::browser {

class ScriptCatalog {
 public:
  void add(script::ScriptSpec spec) {
    const std::string id = spec.id;
    specs_.insert_or_assign(id, std::move(spec));
  }

  const script::ScriptSpec* find(std::string_view id) const {
    const auto it = specs_.find(id);
    if (it != specs_.end()) return &it->second;
    return parent_ == nullptr ? nullptr : parent_->find(id);
  }

  /// Chains lookups: find() falls through to `parent` for ids not present
  /// here, so a per-site overlay holds only that site's own specs while the
  /// shared vendor population lives once in the parent. Non-owning; the
  /// parent must outlive this catalog. `all()`/`transform()`/`size()` stay
  /// local to this catalog's own specs.
  void set_parent(const ScriptCatalog* parent) { parent_ = parent; }
  const ScriptCatalog* parent() const { return parent_; }

  std::size_t size() const { return specs_.size(); }
  const std::map<std::string, script::ScriptSpec, std::less<>>& all() const {
    return specs_;
  }

  /// Applies `fn` to every spec (corpus post-processing).
  void transform(const std::function<void(script::ScriptSpec&)>& fn) {
    for (auto& [id, spec] : specs_) fn(spec);
  }

 private:
  /// Transparent comparator: find(string_view) builds no temporary key.
  std::map<std::string, script::ScriptSpec, std::less<>> specs_;
  const ScriptCatalog* parent_ = nullptr;
};

}  // namespace cg::browser
