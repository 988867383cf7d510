//===- race/Source.cpp - Interned call chains for race reports ------------===//

#include "race/Source.h"

#include <cassert>
#include <sstream>

using namespace grs::race;

StrId StringInterner::intern(const std::string &Text) {
  if (Text.empty())
    return NoName;
  auto [It, Inserted] =
      Index.try_emplace(Text, static_cast<StrId>(Texts.size() + 1));
  if (Inserted)
    Texts.push_back(&It->first);
  return It->second;
}

const std::string &StringInterner::text(StrId Id) const {
  static const std::string Empty;
  if (Id == NoName)
    return Empty;
  assert(Id <= Texts.size() && "unknown interned string id");
  return *Texts[Id - 1];
}

std::string grs::race::formatChain(const StringInterner &Interner,
                                   const CallChain &Chain, bool WithLines) {
  std::ostringstream OS;
  for (size_t I = 0; I < Chain.size(); ++I) {
    if (I)
      OS << " -> ";
    OS << Interner.text(Chain[I].Function) << "()";
    if (WithLines)
      OS << " [" << Interner.text(Chain[I].File) << ':' << Chain[I].Line
         << ']';
  }
  return OS.str();
}
