#include "core/configuration.hpp"

#include <bit>
#include <stdexcept>

#include "core/fnv.hpp"
#include "runtime/error.hpp"

namespace tca::core {

Configuration::Configuration(std::size_t num_cells, State fill)
    : num_cells_(num_cells), words_((num_cells + 63) / 64, 0) {
  if (fill != 0) this->fill(fill);
}

Configuration Configuration::from_string(std::string_view bits) {
  Configuration c(bits.size());
  for (std::size_t i = 0; i < bits.size(); ++i) {
    if (bits[i] == '1') {
      c.set(i, 1);
    } else if (bits[i] != '0') {
      throw tca::InvalidArgumentError("Configuration: expected '0'/'1', got '" +
                                  std::string(1, bits[i]) + "'");
    }
  }
  return c;
}

Configuration Configuration::from_bits(std::uint64_t bits,
                                       std::size_t num_cells) {
  if (num_cells > 64) {
    throw tca::InvalidArgumentError("Configuration::from_bits: num_cells > 64");
  }
  Configuration c(num_cells);
  if (num_cells > 0) {
    c.words_[0] = num_cells == 64
                      ? bits
                      : bits & ((std::uint64_t{1} << num_cells) - 1);
  }
  return c;
}

std::uint64_t Configuration::to_bits() const {
  if (num_cells_ > 64) {
    throw tca::StateError("Configuration::to_bits: more than 64 cells");
  }
  return words_.empty() ? 0 : words_[0];
}

std::size_t Configuration::popcount() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : words_) {
    total += static_cast<std::size_t>(std::popcount(w));
  }
  return total;
}

void Configuration::fill(State value) {
  const std::uint64_t pattern = value != 0 ? ~std::uint64_t{0} : 0;
  for (std::uint64_t& w : words_) w = pattern;
  mask_padding();
}

std::string Configuration::to_string() const {
  std::string s(num_cells_, '0');
  for (std::size_t i = 0; i < num_cells_; ++i) {
    if (get(i) != 0) s[i] = '1';
  }
  return s;
}

void Configuration::mask_padding() noexcept {
  const std::size_t rem = num_cells_ & 63;
  if (rem != 0 && !words_.empty()) {
    words_.back() &= (std::uint64_t{1} << rem) - 1;
  }
}

std::uint64_t hash_value(const Configuration& c) noexcept {
  // The word-wise FNV-1a variant (core/fnv.hpp).
  std::uint64_t h = kFnvOffsetBasis64;
  for (const std::uint64_t w : c.words()) h = fnv1a64_word(h, w);
  h ^= c.size();
  h *= kFnvPrime64;
  return h;
}

}  // namespace tca::core
