// Model artifacts: the `.rsf` (Rain/Shine Forest) on-disk format.
//
// The paper's decision studies fit forests in-process and discard them; the
// serving loop the future-work section sketches (online failure prediction,
// §VII) needs the opposite: fit once, score for months. An `.rsf` file makes
// a fitted cart::Forest outlive its process:
//
//   offset  size  field
//   ------  ----  ------------------------------------------------------
//        0     4  magic "RSF1"
//        4     4  format version (u32, little-endian; 1 or 2)
//        8     8  payload size in bytes (u64)
//       16     4  CRC32 (IEEE 802.3) of the payload bytes (u32)
//       20     -  payload: metadata block, packed trees, then (v2) the
//                 flat inference section
//
// The payload is byte-oriented little-endian regardless of host endianness
// (integers are assembled a byte at a time; doubles travel as the LE bytes
// of their IEEE-754 bit pattern), so artifacts written on any supported host
// load on any other. The metadata block carries everything a scorer needs
// besides the trees: model name/version, task, the feature schema (column
// names, categorical flags, level dictionaries), the ForestConfig that grew
// the model, and its out-of-bag error.
//
// Version 2 appends the compiled cart::FlatForest the serving hot path
// scores with (see cart/flat.hpp), so loading adopts the layout instead of
// re-deriving it:
//
//   u64 node_count | u64 root_count | u64 pool_word_count
//   root_count x u32 roots          (start index of each tree's node span)
//   root_count x u32 depths         (max node depth per tree)
//   node_count x 32-byte FlatNode records — exactly the in-memory layout
//     on little-endian hosts (f64 threshold, u32 child[2], u32 feature,
//     u32 bitset_offset, u32 bitset_bits, u8 categorical,
//     u8 missing_goes_left, 2 zero bytes), so the decoder adopts the whole
//     array with one memcpy there
//   pool_word_count x u64 bitset pool words
//
// The decoder re-proves every structural invariant the traversal relies on
// (spans match the v1 trees, children stay inside their tree and after
// their parent, recomputed BFS depths equal the stored depths, bitset
// ranges sit inside the pool) before adopting; a forged-CRC artifact gets a
// typed kMalformedFlat error, never UB. Version-1 artifacts stay loadable —
// the flat layout is compiled from the trees on load instead.
//
// Loading NEVER exhibits UB on a damaged file. Every read is bounds-checked
// against the declared payload, counts are sanity-capped against the bytes
// that remain, and structural invariants (child indices in range, feature
// indices inside the schema) are re-validated; any violation throws a typed
// `artifact_error` carrying an ArtifactError reason — the serving analogue
// of ingest::ReasonCode.
#pragma once

#include <array>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "rainshine/cart/forest.hpp"

namespace rainshine::serve {

inline constexpr std::array<unsigned char, 4> kMagic{'R', 'S', 'F', '1'};
/// Newest format this build writes (and the newest it reads).
inline constexpr std::uint32_t kFormatVersion = 2;
/// Oldest format this build still reads (v1 = trees only, no flat section).
inline constexpr std::uint32_t kMinFormatVersion = 1;
inline constexpr std::size_t kHeaderBytes = 20;
inline constexpr std::string_view kArtifactExtension = ".rsf";

/// Why a load was rejected.
enum class ArtifactError : std::uint8_t {
  kIoError = 0,         ///< the stream/file could not be read at all
  kBadMagic,            ///< first bytes are not "RSF1"
  kUnsupportedVersion,  ///< format version this build does not speak
  kTruncated,           ///< stream ended before the declared payload did
  kChecksumMismatch,    ///< CRC32 over the payload does not match the header
  kMalformedMetadata,   ///< metadata block failed bounds/sanity checks
  kMalformedForest,     ///< tree block failed bounds/structural checks
  kMalformedFlat,       ///< v2 flat section failed bounds/structural checks
  kTrailingBytes,       ///< bytes follow the declared payload
};

[[nodiscard]] constexpr std::string_view to_string(ArtifactError e) noexcept {
  switch (e) {
    case ArtifactError::kIoError: return "io-error";
    case ArtifactError::kBadMagic: return "bad-magic";
    case ArtifactError::kUnsupportedVersion: return "unsupported-version";
    case ArtifactError::kTruncated: return "truncated";
    case ArtifactError::kChecksumMismatch: return "checksum-mismatch";
    case ArtifactError::kMalformedMetadata: return "malformed-metadata";
    case ArtifactError::kMalformedForest: return "malformed-forest";
    case ArtifactError::kMalformedFlat: return "malformed-flat";
    case ArtifactError::kTrailingBytes: return "trailing-bytes";
  }
  return "?";
}

/// Thrown by load_forest on any damaged or unreadable artifact. Catch this
/// (or inspect `reason()`) instead of pattern-matching message strings.
class artifact_error : public std::runtime_error {
 public:
  artifact_error(ArtifactError reason, const std::string& message)
      : std::runtime_error(std::string(to_string(reason)) + ": " + message),
        reason_(reason) {}

  [[nodiscard]] ArtifactError reason() const noexcept { return reason_; }

 private:
  ArtifactError reason_;
};

/// Everything an artifact records about a model besides its trees. On save,
/// `name`/`version`/`config` come from the caller; task, schema, class
/// labels and oob_error are captured from the forest itself.
struct ModelMetadata {
  std::string name;            ///< registry key ("lambda-hw", ...)
  std::uint32_t version = 1;   ///< registry version (monotonic per name)
  cart::Task task = cart::Task::kRegression;
  std::vector<cart::FeatureInfo> schema;  ///< fitted feature columns, in order
  std::vector<std::string> class_labels;  ///< classification only
  cart::ForestConfig config;   ///< hyper-parameters that grew the model
  double oob_error = 0.0;      ///< honest generalization error at fit time
};

/// A loaded model: immutable forest plus its metadata. shared_ptr so a
/// registry hot-swap cannot pull the forest out from under in-flight scores.
struct ModelArtifact {
  ModelMetadata meta;
  std::shared_ptr<const cart::Forest> forest;
};

/// CRC32 (IEEE 802.3, reflected, init/xorout 0xFFFFFFFF — the zlib/PNG
/// polynomial). Exposed so tests can forge and verify checksums.
[[nodiscard]] std::uint32_t crc32(std::span<const unsigned char> bytes) noexcept;

/// Serializes `forest` with `meta.name/version/config`; the remaining
/// metadata fields are captured from the forest (any caller-supplied values
/// for them are ignored). Requires a non-empty forest whose trees share one
/// feature schema (always true for grow_forest output).
void save_forest(const cart::Forest& forest, const ModelMetadata& meta,
                 std::ostream& out);
/// save_forest to a file, written atomically: the artifact goes to
/// `path + ".tmp"` and is renamed over `path`, so a save that fails leaves
/// any previous artifact at `path` unchanged. Throws
/// util::precondition_error on I/O failure.
void save_forest_file(const cart::Forest& forest, const ModelMetadata& meta,
                      const std::string& path);

/// Compatibility writer: emits a version-1 artifact (trees only, no flat
/// section) that older builds load unchanged. New code should prefer
/// save_forest; this exists for fleets mid-upgrade and for pinning the v1
/// golden file in tests.
void save_forest_v1(const cart::Forest& forest, const ModelMetadata& meta,
                    std::ostream& out);

/// Parses an artifact, validating header, checksum and structure; throws
/// artifact_error (with a typed reason) on anything less than a pristine
/// file. The returned forest is bit-identical in behavior to the one saved.
[[nodiscard]] ModelArtifact load_forest(std::istream& in);
[[nodiscard]] ModelArtifact load_forest_file(const std::string& path);

}  // namespace rainshine::serve
