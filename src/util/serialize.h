// Tiny binary (de)serialization used for model weight caching and the
// on-disk test corpus (src/corpus/).
//
// Format: little-endian POD writes. Not portable across endianness — the
// artifacts are per-machine, never shipped.
#ifndef DX_SRC_UTIL_SERIALIZE_H_
#define DX_SRC_UTIL_SERIALIZE_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

namespace dx {

class Tensor;

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  void WriteU32(uint32_t v) { WritePod(v); }
  void WriteU64(uint64_t v) { WritePod(v); }
  void WriteI64(int64_t v) { WritePod(v); }
  void WriteF32(float v) { WritePod(v); }
  void WriteF64(double v) { WritePod(v); }
  void WriteString(const std::string& s);
  void WriteFloats(const std::vector<float>& v);
  void WriteInts(const std::vector<int>& v);
  // One byte per element (bit-packing is not worth it at coverage-state sizes).
  void WriteBools(const std::vector<bool>& v);
  // Shape extents + flat values; round-trips through ReadTensor.
  void WriteTensor(const Tensor& t);

 private:
  template <typename T>
  void WritePod(const T& v) {
    out_.write(reinterpret_cast<const char*>(&v), sizeof(T));
  }
  std::ostream& out_;
};

// Every length prefix is checked against the bytes left in the stream before
// anything is allocated, so a corrupted length fails fast instead of asking
// for gigabytes. The stream's size is taken once, at construction; a stream
// that cannot seek is capped at 2^32 elements only.
class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in);

  uint32_t ReadU32() { return ReadPod<uint32_t>(); }
  uint64_t ReadU64() { return ReadPod<uint64_t>(); }
  int64_t ReadI64() { return ReadPod<int64_t>(); }
  float ReadF32() { return ReadPod<float>(); }
  double ReadF64() { return ReadPod<double>(); }
  std::string ReadString();
  std::vector<float> ReadFloats();
  std::vector<int> ReadInts();
  std::vector<bool> ReadBools();
  Tensor ReadTensor();

 private:
  template <typename T>
  T ReadPod() {
    T v{};
    ReadBytes(reinterpret_cast<char*>(&v), sizeof(T), "stream");
    return v;
  }
  // Reads a length prefix; throws unless that many `width`-byte elements fit
  // in the rest of the stream.
  uint64_t ReadLength(uint64_t width, const char* what);
  void ReadBytes(char* dst, uint64_t n, const char* what);

  std::istream& in_;
  uint64_t remaining_;  // Bytes left to read (UINT64_MAX when unknown).
};

}  // namespace dx

#endif  // DX_SRC_UTIL_SERIALIZE_H_
