#include "plinda/tuple.h"

#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace fpdm::plinda {
namespace {

TEST(TupleTest, MakeTupleTypes) {
  Tuple t = MakeTuple("task", 3, 2.5);
  ASSERT_EQ(t.fields.size(), 3u);
  EXPECT_EQ(TypeOf(t.fields[0]), ValueType::kString);
  EXPECT_EQ(TypeOf(t.fields[1]), ValueType::kInt);
  EXPECT_EQ(TypeOf(t.fields[2]), ValueType::kDouble);
  EXPECT_EQ(GetString(t, 0), "task");
  EXPECT_EQ(GetInt(t, 1), 3);
  EXPECT_DOUBLE_EQ(GetDouble(t, 2), 2.5);
}

TEST(TupleTest, MatchActuals) {
  Tuple t = MakeTuple("result", 7);
  EXPECT_TRUE(Matches(MakeTemplate(A("result"), A(int64_t{7})), t));
  EXPECT_FALSE(Matches(MakeTemplate(A("result"), A(int64_t{8})), t));
  EXPECT_FALSE(Matches(MakeTemplate(A("task"), A(int64_t{7})), t));
}

TEST(TupleTest, MatchFormalsByType) {
  Tuple t = MakeTuple("result", 7, 1.5);
  EXPECT_TRUE(Matches(
      MakeTemplate(A("result"), F(ValueType::kInt), F(ValueType::kDouble)), t));
  EXPECT_FALSE(Matches(
      MakeTemplate(A("result"), F(ValueType::kDouble), F(ValueType::kDouble)),
      t));
}

TEST(TupleTest, ArityMustAgree) {
  Tuple t = MakeTuple("x", 1);
  EXPECT_FALSE(Matches(MakeTemplate(A("x")), t));
  EXPECT_FALSE(Matches(MakeTemplate(A("x"), F(ValueType::kInt), F(ValueType::kInt)), t));
}

TEST(TupleTest, EmptyTupleMatchesEmptyTemplate) {
  EXPECT_TRUE(Matches(Template{}, Tuple{}));
}

TEST(TupleTest, SerializeRoundTrip) {
  Tuple t = MakeTuple("task; with \"punctuation\"", -42, 3.14159265358979,
                      std::string("embedded\0null", 13));
  std::string data;
  SerializeTuple(t, &data);
  Tuple back;
  size_t pos = 0;
  ASSERT_TRUE(DeserializeTuple(data, &pos, &back));
  EXPECT_EQ(pos, data.size());
  EXPECT_EQ(back, t);
}

TEST(TupleTest, SerializeMultipleTuples) {
  Tuple a = MakeTuple("a", 1);
  Tuple b = MakeTuple(2.5);
  std::string data;
  SerializeTuple(a, &data);
  SerializeTuple(b, &data);
  size_t pos = 0;
  Tuple back;
  ASSERT_TRUE(DeserializeTuple(data, &pos, &back));
  EXPECT_EQ(back, a);
  ASSERT_TRUE(DeserializeTuple(data, &pos, &back));
  EXPECT_EQ(back, b);
  EXPECT_EQ(pos, data.size());
}

// Bitwise equality: unlike Tuple::operator==, tells -0.0 from 0.0 and
// compares NaNs by payload.
bool SameBits(const Tuple& a, const Tuple& b) {
  if (a.fields.size() != b.fields.size()) return false;
  for (size_t i = 0; i < a.fields.size(); ++i) {
    if (a.fields[i].index() != b.fields[i].index()) return false;
    if (const double* da = std::get_if<double>(&a.fields[i])) {
      const double db = std::get<double>(b.fields[i]);
      if (std::memcmp(da, &db, sizeof(double)) != 0) return false;
    } else if (a.fields[i] != b.fields[i]) {
      return false;
    }
  }
  return true;
}

Tuple RoundTrip(const Tuple& t) {
  std::string data;
  SerializeTuple(t, &data);
  Tuple back;
  size_t pos = 0;
  EXPECT_TRUE(DeserializeTuple(data, &pos, &back)) << ToString(t);
  EXPECT_EQ(pos, data.size()) << ToString(t);
  return back;
}

TEST(TupleTest, IntsRoundTripBitwise) {
  const int64_t kMin = std::numeric_limits<int64_t>::min();
  const int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<int64_t> values = {kMin, kMax, 0, -1, 1, 63, -64, 64, -65};
  for (int64_t v : values) {
    EXPECT_TRUE(SameBits(RoundTrip(MakeTuple(v)), MakeTuple(v))) << v;
  }
}

TEST(TupleTest, DoublesRoundTripBitwise) {
  const uint64_t nan_bits = 0x7ff4000000c0ffeeull;  // signalling, payload set
  double nan;
  std::memcpy(&nan, &nan_bits, sizeof(nan));
  const double inf = std::numeric_limits<double>::infinity();
  const double denorm = std::numeric_limits<double>::denorm_min();
  for (double v : {0.0, -0.0, inf, -inf, nan, denorm, 3.14159265358979}) {
    EXPECT_TRUE(SameBits(RoundTrip(MakeTuple(v)), MakeTuple(v))) << v;
  }
}

TEST(TupleTest, StringsAndArityRoundTrip) {
  const Tuple cases[] = {
      Tuple{},
      MakeTuple(std::string()),
      MakeTuple(std::string("embedded\0null", 13)),
      MakeTuple(std::string(64 << 10, 'x'), "tail"),
  };
  for (const Tuple& t : cases) {
    EXPECT_TRUE(SameBits(RoundTrip(t), t)) << ToString(t).substr(0, 40);
  }
}

TEST(TupleTest, TemplateRoundTrip) {
  Template tmpl = MakeTemplate(A("task"), F(ValueType::kString), A(2.5));
  tmpl.fields.push_back(A(int64_t{-3}));
  tmpl.fields.push_back(F(ValueType::kDouble));
  tmpl.fields.push_back(F(ValueType::kInt));
  std::string data;
  SerializeTemplate(tmpl, &data);
  Template back;
  size_t pos = 0;
  ASSERT_TRUE(DeserializeTemplate(data, &pos, &back));
  EXPECT_EQ(pos, data.size());
  EXPECT_EQ(ToString(back), ToString(tmpl));
  const Tuple match = MakeTuple("task", "k", 2.5, int64_t{-3}, 1.0, 7);
  EXPECT_TRUE(Matches(back, match));
}

TEST(TupleTest, DeserializeRejectsGarbage) {
  // Every strict prefix of a real encoding must fail: the codec is
  // self-delimiting, so a prefix always runs out of bytes mid-field.
  Tuple tuple = MakeTuple("cost", std::string(300, 'k'), -2.5, "");
  tuple.fields.push_back(-(int64_t{1} << 40));
  std::string tuple_bytes;
  SerializeTuple(tuple, &tuple_bytes);
  for (size_t len = 0; len < tuple_bytes.size(); ++len) {
    Tuple t;
    size_t pos = 0;
    EXPECT_FALSE(DeserializeTuple(tuple_bytes.substr(0, len), &pos, &t))
        << len;
  }
  Template tmpl = MakeTemplate(A("task"), F(ValueType::kString));
  tmpl.fields.push_back(A(int64_t{1} << 50));
  tmpl.fields.push_back(F(ValueType::kInt));
  std::string tmpl_bytes;
  SerializeTemplate(tmpl, &tmpl_bytes);
  for (size_t len = 0; len < tmpl_bytes.size(); ++len) {
    Template t;
    size_t pos = 0;
    EXPECT_FALSE(DeserializeTemplate(tmpl_bytes.substr(0, len), &pos, &t))
        << len;
  }

  auto rejects_tuple = [](std::string_view bytes) {
    Tuple t;
    size_t pos = 0;
    return !DeserializeTuple(bytes, &pos, &t);
  };
  auto rejects_template = [](std::string_view bytes) {
    Template t;
    size_t pos = 0;
    return !DeserializeTemplate(bytes, &pos, &t);
  };
  // Unknown value tag; unknown template field kind and formal type.
  EXPECT_TRUE(rejects_tuple("\x01x"));
  EXPECT_TRUE(rejects_template("\x01Q"));
  EXPECT_TRUE(rejects_template(std::string("\x01") + "Fx"));
  // An 11-byte varint, as an int value and as the arity; a 10-byte one
  // whose last byte overflows 64 bits.
  const std::string eleven = std::string(10, '\x80') + '\x01';
  EXPECT_TRUE(rejects_tuple("\x01i" + eleven));
  EXPECT_TRUE(rejects_tuple(eleven));
  EXPECT_TRUE(rejects_tuple("\x01i" + std::string(9, '\xff') + '\x02'));
  // Ten bytes ending in 0x01 carry all 64 bits: the largest legal varint,
  // zigzag-decoded to INT64_MIN.
  const std::string int64_min = "\x01i" + std::string(9, '\xff') + '\x01';
  Tuple t;
  size_t pos = 0;
  ASSERT_TRUE(DeserializeTuple(int64_min, &pos, &t));
  EXPECT_EQ(GetInt(t, 0), std::numeric_limits<int64_t>::min());
  // String lengths past the end: 3 bytes with 2 left, and 2^62 bytes,
  // which must be rejected before anything of that size is allocated.
  EXPECT_TRUE(rejects_tuple(std::string("\x01s\x03") + "ab"));
  const std::string huge = std::string(8, '\x80') + '\x40';
  EXPECT_TRUE(rejects_tuple("\x01s" + huge + "ab"));
  // An arity the remaining bytes cannot hold.
  EXPECT_TRUE(rejects_tuple("\xff\xff\xff\xff\x0f"));
}

TEST(TupleTest, ToStringIsReadable) {
  Tuple t = MakeTuple("task", 3);
  EXPECT_EQ(ToString(t), "(\"task\", 3)");
}

}  // namespace
}  // namespace fpdm::plinda
