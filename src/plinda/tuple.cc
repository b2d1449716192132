#include "plinda/tuple.h"

#include <cassert>
#include <cstring>

namespace fpdm::plinda {

ValueType TypeOf(const Value& value) {
  switch (value.index()) {
    case 0:
      return ValueType::kInt;
    case 1:
      return ValueType::kDouble;
    default:
      return ValueType::kString;
  }
}

TemplateField TemplateField::Actual(Value value) {
  TemplateField f;
  f.is_formal = false;
  f.actual = std::move(value);
  return f;
}

TemplateField TemplateField::Formal(ValueType type) {
  TemplateField f;
  f.is_formal = true;
  f.formal_type = type;
  return f;
}

bool Matches(const Template& tmpl, const Tuple& tuple) {
  if (tmpl.fields.size() != tuple.fields.size()) return false;
  for (size_t i = 0; i < tmpl.fields.size(); ++i) {
    const TemplateField& f = tmpl.fields[i];
    if (f.is_formal) {
      if (TypeOf(tuple.fields[i]) != f.formal_type) return false;
    } else {
      if (tuple.fields[i] != f.actual) return false;
    }
  }
  return true;
}

int64_t GetInt(const Tuple& tuple, size_t index) {
  assert(index < tuple.fields.size());
  const int64_t* v = std::get_if<int64_t>(&tuple.fields[index]);
  assert(v != nullptr);
  return *v;
}

double GetDouble(const Tuple& tuple, size_t index) {
  assert(index < tuple.fields.size());
  const double* v = std::get_if<double>(&tuple.fields[index]);
  assert(v != nullptr);
  return *v;
}

const std::string& GetString(const Tuple& tuple, size_t index) {
  assert(index < tuple.fields.size());
  const std::string* v = std::get_if<std::string>(&tuple.fields[index]);
  assert(v != nullptr);
  return *v;
}

namespace {

constexpr uint64_t kFnvOffset = 14695981039346656037ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

// A u64 LEB128 varint needs at most ceil(64 / 7) = 10 bytes.
constexpr int kMaxVarintBytes = 10;

void AppendVarint(uint64_t v, std::string* out) {
  char buf[kMaxVarintBytes];
  size_t n = 0;
  while (v >= 0x80) {
    buf[n++] = static_cast<char>(v | 0x80);
    v >>= 7;
  }
  buf[n++] = static_cast<char>(v);
  out->append(buf, n);
}

bool ParseVarint(std::string_view data, size_t* pos, uint64_t* v) {
  uint64_t result = 0;
  for (int i = 0; i < kMaxVarintBytes; ++i) {
    if (*pos >= data.size()) return false;
    const auto byte = static_cast<uint8_t>(data[(*pos)++]);
    result |= static_cast<uint64_t>(byte & 0x7f) << (7 * i);
    if ((byte & 0x80) == 0) {
      // The 10th byte holds only bit 63; anything more overflows.
      if (i == kMaxVarintBytes - 1 && byte > 1) return false;
      *v = result;
      return true;
    }
  }
  return false;  // an 11th byte would be needed: over-long
}

/// Parses a varint count that must fit in the rest of `data` at
/// `min_bytes_each` encoded bytes per item, so a corrupt count is rejected
/// before anything is sized by it.
bool ParseCount(std::string_view data, size_t* pos, size_t min_bytes_each,
                size_t* n) {
  uint64_t v = 0;
  if (!ParseVarint(data, pos, &v)) return false;
  if (v > (data.size() - *pos) / min_bytes_each) return false;
  *n = static_cast<size_t>(v);
  return true;
}

uint64_t LoadLe64(const char* p) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(p[i])) << (8 * i);
  }
  return v;
}

void AppendValue(const Value& v, std::string* out) {
  switch (TypeOf(v)) {
    case ValueType::kInt: {
      const auto u = static_cast<uint64_t>(std::get<int64_t>(v));
      out->push_back('i');
      AppendVarint((u << 1) ^ (0 - (u >> 63)), out);  // zigzag
      break;
    }
    case ValueType::kDouble: {
      uint64_t bits;
      std::memcpy(&bits, &std::get<double>(v), sizeof(bits));
      char buf[1 + sizeof(bits)];
      buf[0] = 'd';
      for (int i = 0; i < 8; ++i) {
        buf[1 + i] = static_cast<char>(bits >> (8 * i));
      }
      out->append(buf, sizeof(buf));
      break;
    }
    case ValueType::kString: {
      const std::string& s = std::get<std::string>(v);
      out->push_back('s');
      AppendVarint(s.size(), out);
      out->append(s);
      break;
    }
  }
}

bool ParseValue(std::string_view data, size_t* pos, Value* value) {
  if (*pos >= data.size()) return false;
  switch (data[(*pos)++]) {
    case 'i': {
      uint64_t u = 0;
      if (!ParseVarint(data, pos, &u)) return false;
      *value = static_cast<int64_t>((u >> 1) ^ (0 - (u & 1)));
      return true;
    }
    case 'd': {
      if (data.size() - *pos < sizeof(double)) return false;
      const uint64_t bits = LoadLe64(data.data() + *pos);
      double d;
      std::memcpy(&d, &bits, sizeof(d));
      *value = d;
      *pos += sizeof(double);
      return true;
    }
    case 's': {
      size_t len = 0;
      if (!ParseCount(data, pos, 1, &len)) return false;
      *value = std::string(data.substr(*pos, len));
      *pos += len;
      return true;
    }
    default:
      return false;
  }
}

char TypeTag(ValueType type) {
  switch (type) {
    case ValueType::kInt:
      return 'i';
    case ValueType::kDouble:
      return 'd';
    case ValueType::kString:
      return 's';
  }
  return '?';
}

bool TypeFromTag(char tag, ValueType* type) {
  switch (tag) {
    case 'i':
      *type = ValueType::kInt;
      return true;
    case 'd':
      *type = ValueType::kDouble;
      return true;
    case 's':
      *type = ValueType::kString;
      return true;
    default:
      return false;
  }
}

}  // namespace

void SerializeTuple(const Tuple& tuple, std::string* out) {
  AppendVarint(tuple.fields.size(), out);
  for (const Value& v : tuple.fields) AppendValue(v, out);
}

bool DeserializeTuple(std::string_view data, size_t* pos, Tuple* tuple) {
  tuple->fields.clear();
  // Every value costs at least 2 encoded bytes (tag + 1-byte varint).
  size_t arity = 0;
  if (!ParseCount(data, pos, 2, &arity)) return false;
  tuple->fields.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    if (!ParseValue(data, pos, &tuple->fields.emplace_back())) return false;
  }
  return true;
}

void SerializeTemplate(const Template& tmpl, std::string* out) {
  AppendVarint(tmpl.fields.size(), out);
  for (const TemplateField& f : tmpl.fields) {
    if (f.is_formal) {
      out->push_back('F');
      out->push_back(TypeTag(f.formal_type));
    } else {
      out->push_back('A');
      AppendValue(f.actual, out);
    }
  }
}

bool DeserializeTemplate(std::string_view data, size_t* pos,
                         Template* tmpl) {
  tmpl->fields.clear();
  // A formal is 2 bytes, an actual at least 3.
  size_t arity = 0;
  if (!ParseCount(data, pos, 2, &arity)) return false;
  tmpl->fields.reserve(arity);
  for (size_t i = 0; i < arity; ++i) {
    if (*pos >= data.size()) return false;
    char kind = data[(*pos)++];
    if (kind == 'F') {
      if (*pos >= data.size()) return false;
      ValueType type;
      if (!TypeFromTag(data[(*pos)++], &type)) return false;
      tmpl->fields.push_back(TemplateField::Formal(type));
    } else if (kind == 'A') {
      Value v;
      if (!ParseValue(data, pos, &v)) return false;
      tmpl->fields.push_back(TemplateField::Actual(std::move(v)));
    } else {
      return false;
    }
  }
  return true;
}

uint64_t Fnv1a64(std::string_view data) {
  uint64_t hash = kFnvOffset;
  for (char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= kFnvPrime;
  }
  return hash;
}

uint64_t Checksum64(std::string_view data) {
  uint64_t hash = kFnvOffset;
  const char* p = data.data();
  const char* const words_end = p + (data.size() & ~size_t{7});
  for (; p != words_end; p += 8) {
    hash ^= LoadLe64(p);
    hash *= kFnvPrime;
  }
  for (; p != data.data() + data.size(); ++p) {
    hash ^= static_cast<unsigned char>(*p);
    hash *= kFnvPrime;
  }
  // The length closes the hash, so an input and its zero-extension never
  // collide through a degenerate tail step.
  hash ^= data.size();
  hash *= kFnvPrime;
  return hash;
}

std::string ToString(const Tuple& tuple) {
  std::string out = "(";
  for (size_t i = 0; i < tuple.fields.size(); ++i) {
    if (i > 0) out += ", ";
    const Value& v = tuple.fields[i];
    switch (TypeOf(v)) {
      case ValueType::kInt:
        out += std::to_string(std::get<int64_t>(v));
        break;
      case ValueType::kDouble:
        out += std::to_string(std::get<double>(v));
        break;
      case ValueType::kString:
        out += '"' + std::get<std::string>(v) + '"';
        break;
    }
  }
  out += ")";
  return out;
}

std::string ToString(const Template& tmpl) {
  std::string out = "(";
  for (size_t i = 0; i < tmpl.fields.size(); ++i) {
    if (i > 0) out += ", ";
    const TemplateField& f = tmpl.fields[i];
    if (f.is_formal) {
      switch (f.formal_type) {
        case ValueType::kInt:
          out += "?int";
          break;
        case ValueType::kDouble:
          out += "?double";
          break;
        case ValueType::kString:
          out += "?string";
          break;
      }
    } else {
      switch (TypeOf(f.actual)) {
        case ValueType::kInt:
          out += std::to_string(std::get<int64_t>(f.actual));
          break;
        case ValueType::kDouble:
          out += std::to_string(std::get<double>(f.actual));
          break;
        case ValueType::kString:
          out += '"' + std::get<std::string>(f.actual) + '"';
          break;
      }
    }
  }
  out += ")";
  return out;
}

}  // namespace fpdm::plinda
