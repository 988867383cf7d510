//===- rt/GoSlice.h - Go slice semantics ------------------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Go slices with meta-field modelling (Observation 4): "Internally, a
/// slice contains a pointer to the underlying array, its current length,
/// and the maximum capacity ... We refer to these variables as *meta*
/// fields."
///
/// Every GoSlice variable owns a shadow address standing for its meta
/// trio. Copying a slice (assignment, pass-by-value, passing as a
/// goroutine argument) READS the source's meta fields — so Listing 5's
/// bug reproduces exactly: a goroutine-call copy of `myResults` reads meta
/// fields concurrently with a lock-protected append that writes them, and
/// the lock does not cover the copy.
///
/// append() follows Go's growth rule: within capacity it writes in place
/// (aliasing slices share elements but NOT the new length); beyond
/// capacity it reallocates, after which aliases keep the old backing.
///
/// A slice interns its meta and element names once, when it is created
/// (copies share the ids), so an access builds no string. Out-of-range
/// make() and s[lo:hi] panic as in Go, in every build type.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_RT_GOSLICE_H
#define GRS_RT_GOSLICE_H

#include "rt/Runtime.h"

#include <memory>
#include <string>
#include <vector>

namespace grs {
namespace rt {

/// A Go slice of \p T. Value type: copies share the backing array but
/// have independent meta fields.
template <typename T> class GoSlice {
public:
  /// A nil slice (len 0, cap 0, no backing).
  explicit GoSlice(const std::string &Name = "slice")
      : Name(Runtime::current().intern(Name)),
        MetaName(Runtime::current().intern(Name + ".meta")),
        ElemName(Runtime::current().intern(Name + "[i]")),
        MetaAddr(Runtime::current().allocAddr()) {}

  /// make([]T, Len, Cap).
  static GoSlice make(const std::string &Name, size_t Len, size_t Cap) {
    if (Len > Cap)
      Runtime::current().panicNow(
          "runtime error: makeslice: cap out of range in " + Name);
    GoSlice S(Name);
    S.B = std::make_shared<Backing>(Cap);
    S.Length = Len;
    return S;
  }

  /// make([]T, Len).
  static GoSlice make(const std::string &Name, size_t Len) {
    return make(Name, Len, Len);
  }

  /// Slice copy (`s2 := s1`, pass-by-value, goroutine argument): reads
  /// the source's meta fields — the Listing 5 race — and gives the copy
  /// its own meta address.
  GoSlice(const GoSlice &Other)
      : Name(Other.Name), MetaName(Other.MetaName), ElemName(Other.ElemName),
        MetaAddr(Runtime::current().allocAddr()) {
    Runtime::current().read(Other.MetaAddr, Other.MetaName);
    B = Other.B;
    Offset = Other.Offset;
    Length = Other.Length;
  }

  GoSlice &operator=(const GoSlice &Other) {
    if (this == &Other)
      return *this;
    Runtime &RT = Runtime::current();
    RT.read(Other.MetaAddr, Other.MetaName);
    RT.write(MetaAddr, MetaName);
    B = Other.B;
    Offset = Other.Offset;
    Length = Other.Length;
    return *this;
  }

  /// s[I] read.
  T get(size_t I) const {
    Runtime &RT = Runtime::current();
    RT.read(MetaAddr, MetaName); // Bounds check reads len.
    boundsCheck(I);
    RT.read(elemAddr(I), ElemName);
    return B->Data[Offset + I];
  }

  /// s[I] = V.
  void set(size_t I, T V) {
    Runtime &RT = Runtime::current();
    RT.read(MetaAddr, MetaName);
    boundsCheck(I);
    RT.write(elemAddr(I), ElemName);
    B->Data[Offset + I] = std::move(V);
  }

  /// s = append(s, V): reads AND writes the meta fields; reallocates (and
  /// reads every element while copying) when capacity is exhausted.
  ///
  /// Instrument, then act: each RT call may switch goroutines, and a
  /// sibling append on the same slice can run there, growing it or
  /// filling its backing. So the C++ state is read and changed only after
  /// the last RT call before it: the copy takes the length it finds after
  /// the reads, and the store re-derives its position and room after the
  /// element write. A racy append is then a detected race, never a store
  /// past the end of the backing. In such a schedule the backing's data
  /// can outgrow its shadow range; the RT calls, and so the verdicts, are
  /// the same as if the storage had not moved.
  void append(T V) {
    Runtime &RT = Runtime::current();
    RT.read(MetaAddr, MetaName);
    RT.write(MetaAddr, MetaName);
    if (!B || Offset + Length >= B->Data.size()) {
      size_t NewCap = Length == 0 ? 1 : Length * 2;
      auto NewB = std::make_shared<Backing>(NewCap);
      for (size_t I = 0; I < Length; ++I)
        RT.read(elemAddr(I), ElemName);
      if (NewB->Data.size() < Length)
        NewB->Data.resize(Length);
      for (size_t I = 0; I < Length; ++I)
        NewB->Data[I] = B->Data[Offset + I];
      B = std::move(NewB);
      Offset = 0;
    }
    RT.write(B->ElemBase + Offset + Length, ElemName);
    if (Offset + Length >= B->Data.size())
      B->Data.resize(Offset + Length + 1);
    B->Data[Offset + Length] = std::move(V);
    ++Length;
  }

  /// copy(dst, src): copies min(len(dst), len(src)) elements into this
  /// slice; returns the count. Reads both metas and every copied element
  /// (so concurrent writers to either side race, as in Go).
  size_t copyFrom(const GoSlice &Src) {
    Runtime &RT = Runtime::current();
    RT.read(MetaAddr, MetaName);
    RT.read(Src.MetaAddr, Src.MetaName);
    size_t Count = std::min(Length, Src.Length);
    for (size_t I = 0; I < Count; ++I) {
      RT.read(Src.elemAddr(I), Src.ElemName);
      RT.write(elemAddr(I), ElemName);
      B->Data[Offset + I] = Src.B->Data[Src.Offset + I];
    }
    return Count;
  }

  /// len(s).
  size_t len() const {
    Runtime::current().read(MetaAddr, MetaName);
    return Length;
  }

  /// cap(s).
  size_t capacity() const {
    Runtime::current().read(MetaAddr, MetaName);
    return rawCap();
  }

  /// s[Lo:Hi]: shares the backing array. Go's bound is
  /// 0 <= Lo <= Hi <= cap(s), so a slice may extend past len(s).
  GoSlice slice(size_t Lo, size_t Hi) const {
    Runtime &RT = Runtime::current();
    RT.read(MetaAddr, MetaName);
    if (Hi > rawCap())
      RT.panicNow("runtime error: slice bounds out of range [:" +
                  std::to_string(Hi) + "] with capacity " +
                  std::to_string(rawCap()) + " in " + name());
    if (Lo > Hi)
      RT.panicNow("runtime error: slice bounds out of range [" +
                  std::to_string(Lo) + ":" + std::to_string(Hi) + "] in " +
                  name());
    GoSlice Sub(name() + "[lo:hi]");
    Sub.B = B;
    Sub.Offset = Offset + Lo;
    Sub.Length = Hi - Lo;
    return Sub;
  }

  /// Uninstrumented element peek for test assertions.
  const T &raw(size_t I) const { return B->Data[Offset + I]; }
  size_t rawLen() const { return Length; }

  race::Addr metaAddr() const { return MetaAddr; }
  const std::string &name() const {
    return Runtime::current().nameText(Name);
  }

private:
  struct Backing {
    explicit Backing(size_t Cap)
        : Data(Cap), ElemBase(Runtime::current().allocAddr(Cap)) {}
    std::vector<T> Data;
    race::Addr ElemBase;
  };

  race::Addr elemAddr(size_t I) const { return B->ElemBase + Offset + I; }

  size_t rawCap() const { return B ? B->Data.size() - Offset : 0; }

  void boundsCheck(size_t I) const {
    if (I >= Length)
      Runtime::current().panicNow("runtime error: index out of range in " +
                                  name());
  }

  /// Interned ids of the slice's name, its meta fields' and its elements'.
  race::StrId Name, MetaName, ElemName;
  race::Addr MetaAddr;
  std::shared_ptr<Backing> B;
  size_t Offset = 0;
  size_t Length = 0;
};

} // namespace rt
} // namespace grs

#endif // GRS_RT_GOSLICE_H
