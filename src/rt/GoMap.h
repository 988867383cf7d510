//===- rt/GoMap.h - Go built-in map semantics -------------------*- C++ -*-===//
//
// Part of the gorace-study project: a C++ reproduction of "A Study of
// Real-World Data Races in Golang" (PLDI 2022).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Go's built-in map with its thread-unsafety modelled (Observation 5):
/// "a map (hash table), unlike an array or a slice, is a sparse data
/// structure, and accessing one element might result in accessing another
/// element; if during the same process another insertion/deletion happens,
/// it will modify the sparse data structure and cause a data race."
///
/// Every operation therefore touches a per-map *structure* shadow address
/// (bucket array, hash state): reads read it, inserts/updates/deletes
/// write it. This is why Listing 6's writes to DISTINCT keys still
/// write-write race. Lookup of a missing key returns the zero value
/// without error — the §4.4 "error tolerance" that lulls developers.
/// The structure and key names are interned once, at construction.
///
//===----------------------------------------------------------------------===//

#ifndef GRS_RT_GOMAP_H
#define GRS_RT_GOMAP_H

#include "rt/Runtime.h"

#include <string>
#include <unordered_map>
#include <utility>

namespace grs {
namespace rt {

/// A Go map[K]V. Reference type in Go; here non-copyable (share by
/// reference/pointer, as Go programs share the header).
template <typename K, typename V> class GoMap {
public:
  explicit GoMap(const std::string &Name = "map")
      : Name(Runtime::current().intern(Name)),
        StructName(Runtime::current().intern(Name + ".structure")),
        KeyName(Runtime::current().intern(Name + "[k]")),
        StructAddr(Runtime::current().allocAddr()) {}

  GoMap(const GoMap &) = delete;
  GoMap &operator=(const GoMap &) = delete;

  /// v := m[k] — missing keys yield the zero value, silently.
  V get(const K &Key) const {
    Runtime &RT = Runtime::current();
    RT.read(StructAddr, StructName);
    auto Found = Table.find(Key);
    if (Found == Table.end())
      return V();
    RT.read(slotAddr(Key), KeyName);
    return Found->second;
  }

  /// v, ok := m[k].
  std::pair<V, bool> getOk(const K &Key) const {
    Runtime &RT = Runtime::current();
    RT.read(StructAddr, StructName);
    auto Found = Table.find(Key);
    if (Found == Table.end())
      return {V(), false};
    RT.read(slotAddr(Key), KeyName);
    return {Found->second, true};
  }

  /// m[k] = v. Writes the sparse structure even for existing keys —
  /// the heart of the Listing 6 race.
  void set(const K &Key, V Value) {
    Runtime &RT = Runtime::current();
    RT.write(StructAddr, StructName);
    RT.write(slotAddr(Key), KeyName);
    Table[Key] = std::move(Value);
  }

  /// delete(m, k).
  void erase(const K &Key) {
    Runtime &RT = Runtime::current();
    RT.write(StructAddr, StructName);
    Table.erase(Key);
  }

  /// len(m).
  size_t len() const {
    Runtime::current().read(StructAddr, StructName);
    return Table.size();
  }

  bool contains(const K &Key) const {
    Runtime::current().read(StructAddr, StructName);
    return Table.count(Key) != 0;
  }

  /// range over the map (iteration reads the structure and each slot).
  template <typename Fn> void forEach(Fn Visit) const {
    Runtime &RT = Runtime::current();
    RT.read(StructAddr, StructName);
    for (const auto &[Key, Value] : Table) {
      RT.read(slotAddr(Key), KeyName);
      Visit(Key, Value);
    }
  }

  /// Uninstrumented peeks for test assertions.
  size_t rawLen() const { return Table.size(); }
  bool rawContains(const K &Key) const { return Table.count(Key) != 0; }

  race::Addr structAddr() const { return StructAddr; }
  const std::string &name() const {
    return Runtime::current().nameText(Name);
  }

private:
  race::Addr slotAddr(const K &Key) const {
    auto [It, Inserted] = SlotAddrs.try_emplace(Key, 0);
    if (Inserted)
      It->second = Runtime::current().allocAddr();
    return It->second;
  }

  /// Interned ids of the map's name, its structure's and its slots'.
  race::StrId Name, StructName, KeyName;
  race::Addr StructAddr;
  std::unordered_map<K, V> Table;
  /// Stable per-key shadow addresses (lazily allocated, never reused even
  /// across delete/re-insert).
  mutable std::unordered_map<K, race::Addr> SlotAddrs;
};

} // namespace rt
} // namespace grs

#endif // GRS_RT_GOMAP_H
