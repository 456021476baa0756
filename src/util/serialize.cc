#include "src/util/serialize.h"

#include <algorithm>
#include <limits>

#include "src/tensor/tensor.h"

namespace dx {

namespace {
constexpr uint64_t kMaxReasonableLength = 1ULL << 32;
}  // namespace

void BinaryWriter::WriteString(const std::string& s) {
  WriteU64(s.size());
  out_.write(s.data(), static_cast<std::streamsize>(s.size()));
}

void BinaryWriter::WriteFloats(const std::vector<float>& v) {
  WriteU64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(float)));
}

void BinaryWriter::WriteInts(const std::vector<int>& v) {
  WriteU64(v.size());
  out_.write(reinterpret_cast<const char*>(v.data()),
             static_cast<std::streamsize>(v.size() * sizeof(int)));
}

void BinaryWriter::WriteBools(const std::vector<bool>& v) {
  WriteU64(v.size());
  // One buffered write: this runs on the per-batch checkpoint path, where a
  // per-element ostream call would dominate.
  std::string bytes(v.size(), '\0');
  for (size_t i = 0; i < v.size(); ++i) {
    bytes[i] = v[i] ? 1 : 0;
  }
  out_.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void BinaryWriter::WriteTensor(const Tensor& t) {
  WriteInts(t.shape());
  WriteFloats(t.values());
}

BinaryReader::BinaryReader(std::istream& in)
    : in_(in), remaining_(std::numeric_limits<uint64_t>::max()) {
  const std::istream::pos_type pos = in_.tellg();
  if (pos == std::istream::pos_type(-1)) {
    return;  // Not seekable (or already failed): the 2^32 cap only.
  }
  if (in_.seekg(0, std::ios::end)) {
    const std::istream::pos_type end = in_.tellg();
    if (end != std::istream::pos_type(-1) && end - pos >= 0) {
      remaining_ = static_cast<uint64_t>(end - pos);
    }
  }
  in_.clear();
  in_.seekg(pos);
}

void BinaryReader::ReadBytes(char* dst, uint64_t n, const char* what) {
  in_.read(dst, static_cast<std::streamsize>(n));
  if (!in_) {
    throw std::runtime_error(std::string("BinaryReader: truncated ") + what);
  }
  remaining_ -= std::min(remaining_, n);
}

uint64_t BinaryReader::ReadLength(uint64_t width, const char* what) {
  const uint64_t n = ReadU64();
  if (n > kMaxReasonableLength || n > remaining_ / width) {
    throw std::runtime_error(std::string("BinaryReader: corrupt ") + what + " length");
  }
  return n;
}

std::string BinaryReader::ReadString() {
  const uint64_t n = ReadLength(1, "string");
  std::string s(n, '\0');
  ReadBytes(s.data(), n, "string");
  return s;
}

std::vector<float> BinaryReader::ReadFloats() {
  const uint64_t n = ReadLength(sizeof(float), "float array");
  std::vector<float> v(n);
  ReadBytes(reinterpret_cast<char*>(v.data()), n * sizeof(float), "float array");
  return v;
}

std::vector<int> BinaryReader::ReadInts() {
  const uint64_t n = ReadLength(sizeof(int), "int array");
  std::vector<int> v(n);
  ReadBytes(reinterpret_cast<char*>(v.data()), n * sizeof(int), "int array");
  return v;
}

std::vector<bool> BinaryReader::ReadBools() {
  const uint64_t n = ReadLength(1, "bool array");
  std::string bytes(n, '\0');
  ReadBytes(bytes.data(), n, "bool array");
  std::vector<bool> v(n);
  for (uint64_t i = 0; i < n; ++i) {
    v[i] = bytes[i] != 0;
  }
  return v;
}

Tensor BinaryReader::ReadTensor() {
  const Shape shape = ReadInts();
  std::vector<float> values = ReadFloats();
  if (shape.empty() && values.empty()) {
    return Tensor();  // Default-constructed (0-element) tensor.
  }
  if (static_cast<int64_t>(values.size()) != NumElements(shape)) {
    throw std::runtime_error("BinaryReader: tensor shape/value mismatch");
  }
  return Tensor(shape, std::move(values));
}

}  // namespace dx
