// One state walker, three backends.
//
// Checkpoint save, checkpoint load, and canonical digest must agree on
// exactly which bits constitute simulator state — if they could drift apart,
// a checkpoint might silently omit a field the digest covers (resume
// diverges) or cover a field the digest ignores (divergence goes
// undetected). To make drift structurally impossible, every engine writes a
// single template:
//
//   template <typename Ar> void Archive(Ar& ar) {
//     ar.Field("now", now);
//     ar.Begin("breaker"); ... ar.End();
//     ...
//   }
//
// and instantiates it with Saver (JsonWriter-backed), Loader
// (JsonValue-backed), or Digester (StateDigest-backed). Adding a field to
// the walker updates all three at once; forgetting one is impossible. A
// fourth backend, SizeBound, walks it to bound a Saver document's size.
//
// Encoding choices:
//   - Doubles save/load as their IEEE-754 bit pattern (a JSON uint64), so a
//     round trip through the text checkpoint is exact. The digest mixes the
//     same bits.
//   - Loader looks fields up by key (not position), so field reordering in
//     the walker does not invalidate old checkpoints — only renames and
//     removals do, and those bump the checkpoint version.

#ifndef FAASCOST_INTEGRITY_ARCHIVE_H_
#define FAASCOST_INTEGRITY_ARCHIVE_H_

#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/json_reader.h"
#include "src/common/json_writer.h"
#include "src/common/rng.h"
#include "src/integrity/digest.h"

namespace faascost {

class Saver {
 public:
  static constexpr bool kLoading = false;

  explicit Saver(JsonWriter* w) : w_(w) {}

  void Field(std::string_view key, uint64_t& v) { w_->KV(key, v); }
  void Field(std::string_view key, int64_t& v) { w_->KV(key, v); }
  void Field(std::string_view key, int& v) { w_->KV(key, static_cast<int64_t>(v)); }
  void Field(std::string_view key, bool& v) { w_->KV(key, v); }
  void Field(std::string_view key, double& v) {
    w_->KV(key, std::bit_cast<uint64_t>(v));
  }
  void Field(std::string_view key, std::string& v) {
    w_->KV(key, std::string_view(v));
  }

  void Begin(std::string_view key) {
    w_->Key(key);
    w_->BeginObject();
  }
  void End() { w_->EndObject(); }

  // Returns the element count the caller must iterate (its own `n` when
  // saving, the document's when loading).
  size_t BeginArray(std::string_view key, size_t n) {
    w_->Key(key);
    w_->BeginArray();
    return n;
  }
  void BeginElem() { w_->BeginObject(); }
  void EndElem() { w_->EndObject(); }
  void EndArray() { w_->EndArray(); }

  void I64Vec(std::string_view key, std::vector<int64_t>& v) {
    w_->Key(key);
    w_->BeginArray();
    for (const int64_t x : v) {
      w_->Value(x);
    }
    w_->EndArray();
  }

 private:
  JsonWriter* w_;
};

class Loader {
 public:
  static constexpr bool kLoading = true;

  explicit Loader(const JsonValue* root) { stack_.push_back({root, 0}); }

  void Field(std::string_view key, uint64_t& v) { v = Cur().At(key).GetUint64(); }
  void Field(std::string_view key, int64_t& v) { v = Cur().At(key).GetInt64(); }
  void Field(std::string_view key, int& v) {
    v = static_cast<int>(Cur().At(key).GetInt64());
  }
  void Field(std::string_view key, bool& v) { v = Cur().At(key).GetBool(); }
  void Field(std::string_view key, double& v) {
    v = std::bit_cast<double>(Cur().At(key).GetUint64());
  }
  void Field(std::string_view key, std::string& v) {
    v = Cur().At(key).GetString();
  }

  void Begin(std::string_view key) { stack_.push_back({&Cur().At(key), 0}); }
  void End() { stack_.pop_back(); }

  size_t BeginArray(std::string_view key, size_t /*n*/) {
    const JsonValue* arr = &Cur().At(key);
    stack_.push_back({arr, 0});
    return arr->GetArray().size();
  }
  void BeginElem() {
    Frame& f = stack_.back();
    stack_.push_back({&f.node->GetArray().at(f.index), 0});
  }
  void EndElem() {
    stack_.pop_back();
    ++stack_.back().index;
  }
  void EndArray() { stack_.pop_back(); }

  void I64Vec(std::string_view key, std::vector<int64_t>& v) {
    const auto& items = Cur().At(key).GetArray();
    v.clear();
    v.reserve(items.size());
    for (const JsonValue& item : items) {
      v.push_back(item.GetInt64());
    }
  }

 private:
  struct Frame {
    const JsonValue* node;
    size_t index;
  };

  const JsonValue& Cur() const { return *stack_.back().node; }

  std::vector<Frame> stack_;
};

class Digester {
 public:
  static constexpr bool kLoading = false;

  explicit Digester(StateDigest* d) : d_(d) {}

  void Field(std::string_view key, uint64_t& v) {
    d_->MixStr(key);
    d_->MixU64(v);
  }
  void Field(std::string_view key, int64_t& v) {
    d_->MixStr(key);
    d_->MixI64(v);
  }
  void Field(std::string_view key, int& v) {
    d_->MixStr(key);
    d_->MixI64(v);
  }
  void Field(std::string_view key, bool& v) {
    d_->MixStr(key);
    d_->MixBool(v);
  }
  void Field(std::string_view key, double& v) {
    d_->MixStr(key);
    d_->MixDouble(v);
  }
  void Field(std::string_view key, std::string& v) {
    d_->MixStr(key);
    d_->MixStr(v);
  }

  void Begin(std::string_view key) {
    d_->MixLabel(key);
    d_->MixByte('{');
  }
  void End() { d_->MixByte('}'); }

  size_t BeginArray(std::string_view key, size_t n) {
    d_->MixLabel(key);
    d_->MixByte('[');
    d_->MixU64(n);
    return n;
  }
  void BeginElem() { d_->MixByte('{'); }
  void EndElem() { d_->MixByte('}'); }
  void EndArray() { d_->MixByte(']'); }

  void I64Vec(std::string_view key, std::vector<int64_t>& v) {
    d_->MixLabel(key);
    d_->MixU64(v.size());
    for (const int64_t x : v) {
      d_->MixI64(x);
    }
  }

 private:
  StateDigest* d_;
};

// Upper bound on the bytes Saver writes for the same walk: every key at its
// length, every number at its widest, every string fully escaped, plus the
// quotes, colons, commas and brackets around them. Engines reserve it before
// saving, so a large checkpoint is written without regrowing its buffer.
class SizeBound {
 public:
  static constexpr bool kLoading = false;

  // uint64_t, int64_t, int, and double (saved as its uint64 bit pattern).
  template <typename T>
  void Field(std::string_view key, T& /*v*/) {
    bytes_ += KeyBytes(key) + kNumberBytes;
  }
  void Field(std::string_view key, bool& /*v*/) { bytes_ += KeyBytes(key) + 5; }
  void Field(std::string_view key, std::string& v) {
    bytes_ += KeyBytes(key) + 2 + 6 * v.size();  // "\u00XX" per byte at worst.
  }

  void Begin(std::string_view key) { bytes_ += KeyBytes(key) + 2; }
  void End() {}

  size_t BeginArray(std::string_view key, size_t n) {
    bytes_ += KeyBytes(key) + 2;
    return n;
  }
  void BeginElem() { bytes_ += 3; }  // Braces and a comma.
  void EndElem() {}
  void EndArray() {}

  void I64Vec(std::string_view key, std::vector<int64_t>& v) {
    bytes_ += KeyBytes(key) + 2 + (kNumberBytes + 1) * v.size();
  }

  size_t bytes() const { return bytes_; }

 private:
  // Widest int64 or uint64 in decimal: "-9223372036854775808".
  static constexpr size_t kNumberBytes = 20;
  // A key with its quotes, its colon and the comma before it.
  static size_t KeyBytes(std::string_view key) { return key.size() + 4; }

  size_t bytes_ = 0;
};

// Archives an RNG's position in its stream (xoshiro state words plus the
// cached Box-Muller spare) under one key. Shared by every engine.
template <typename Ar>
void ArchiveRng(Ar& ar, std::string_view key, Rng& rng) {
  RngState st = rng.SaveState();
  ar.Begin(key);
  ar.Field("s0", st.s[0]);
  ar.Field("s1", st.s[1]);
  ar.Field("s2", st.s[2]);
  ar.Field("s3", st.s[3]);
  ar.Field("spare_bits", st.spare_normal_bits);
  ar.Field("has_spare", st.has_spare_normal);
  ar.End();
  if constexpr (Ar::kLoading) {
    rng.LoadState(st);
  }
}

}  // namespace faascost

#endif  // FAASCOST_INTEGRITY_ARCHIVE_H_
