//===- race/Source.h - Interned call chains for race reports ----*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Interned source locations and call chains. A detected race report
/// carries "two call chains (aka calling contexts or stack traces) of the
/// two conflicting accesses" (paper §3.3); the post-facto pipeline then
/// fingerprints those chains ignoring line numbers (§3.3.1) and assigns
/// ownership from their root frames (§3.3.2).
///
//===----------------------------------------------------------------------===//

#ifndef GRS_RACE_SOURCE_H
#define GRS_RACE_SOURCE_H

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace grs {
namespace race {

/// Interned string id. Ids are dense and stable for the interner lifetime.
using StrId = uint32_t;

/// The id of the empty string in every interner: an access with no name.
inline constexpr StrId NoName = 0;

/// Bidirectional string interner for function, file and variable names.
/// The empty string is NoName without being stored, so a fresh interner
/// allocates nothing.
class StringInterner {
public:
  /// Interns \p Text, returning its stable id (one hash lookup).
  StrId intern(const std::string &Text);

  /// \returns the text for \p Id; \p Id must have been produced by this
  /// interner. The reference stays valid for the interner's lifetime.
  const std::string &text(StrId Id) const;

  /// Distinct strings interned, the empty string included.
  size_t size() const { return Texts.size() + 1; }

private:
  /// Owns the text. Its nodes never move, so Texts can point at its keys.
  std::unordered_map<std::string, StrId> Index;
  /// Texts[Id - 1] is the text of Id.
  std::vector<const std::string *> Texts;
};

/// One stack frame: function, file, line. Function and file are interner
/// ids resolved against the detector's interner.
struct Frame {
  StrId Function = 0;
  StrId File = 0;
  uint32_t Line = 0;

  friend bool operator==(const Frame &A, const Frame &B) {
    return A.Function == B.Function && A.File == B.File && A.Line == B.Line;
  }
};

/// A calling context, root first (index 0 is the outermost caller, the
/// frame whose author the pipeline prefers as assignee).
using CallChain = std::vector<Frame>;

/// Renders \p Chain as "Root() -> Mid() -> Leaf()" with optional
/// file:line suffixes.
std::string formatChain(const StringInterner &Interner,
                        const CallChain &Chain, bool WithLines);

} // namespace race
} // namespace grs

#endif // GRS_RACE_SOURCE_H
