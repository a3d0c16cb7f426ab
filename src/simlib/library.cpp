#include "simlib/library.hpp"

#include <stdexcept>

namespace healers::simlib {

void SharedLibrary::add(Symbol symbol) {
  if (symbols_.contains(symbol.name)) {
    throw std::invalid_argument("SharedLibrary::add: duplicate symbol " + symbol.name);
  }
  symbols_.emplace(symbol.name, std::move(symbol));
}

const Symbol* SharedLibrary::find(const std::string& name) const noexcept {
  auto it = symbols_.find(name);
  return it == symbols_.end() ? nullptr : &it->second;
}

std::vector<std::string> SharedLibrary::names() const {
  std::vector<std::string> out;
  out.reserve(symbols_.size());
  for (const auto& [name, _] : symbols_) out.push_back(name);
  return out;
}

std::uint64_t SharedLibrary::fingerprint() const noexcept {
  std::uint64_t hash = 1469598103934665603ULL;
  const auto fold = [&hash](const std::string& text) {
    for (const unsigned char c : text) {
      hash ^= c;
      hash *= 1099511628211ULL;
    }
    hash ^= 0xff;  // field separator: "ab"+"c" and "a"+"bc" hash differently
    hash *= 1099511628211ULL;
  };
  fold(soname_);
  fold(version_);
  for (const auto& [name, symbol] : symbols_) {
    fold(name);
    fold(symbol.declaration);
    fold(symbol.manpage);
  }
  return hash;
}

const Result<parser::ManPage>& SharedLibrary::parsed_manpage(const std::string& name) const {
  const Symbol* symbol = find(name);
  if (symbol == nullptr) {
    throw std::out_of_range("SharedLibrary::parsed_manpage: " + soname_ + " does not define " +
                            name);
  }
  std::lock_guard lock(pages_->mutex);
  auto it = pages_->pages.find(name);
  if (it == pages_->pages.end()) {
    it = pages_->pages.emplace(name, parser::parse_manpage(symbol->manpage)).first;
  }
  return it->second;
}

std::string SharedLibrary::header_text() const {
  std::string out = "/* " + soname_ + " " + version_ + " */\n";
  for (const auto& [_, symbol] : symbols_) {
    out += symbol.declaration;
    out += '\n';
  }
  return out;
}

}  // namespace healers::simlib
