#include "plinda/tuple.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstdlib>
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

Template ExactTemplate(const Tuple& tuple) {
  Template tmpl;
  tmpl.fields.reserve(tuple.fields.size());
  for (const Value& value : tuple.fields) {
    tmpl.fields.push_back(TemplateField::Actual(value));
  }
  return tmpl;
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

void AppendSize(size_t n, std::string* out) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%zu:", n);
  out->append(buf);
}

bool ParseSize(std::string_view data, size_t* pos, size_t* n) {
  size_t value = 0;
  bool any = false;
  while (*pos < data.size() && data[*pos] >= '0' && data[*pos] <= '9') {
    value = value * 10 + static_cast<size_t>(data[*pos] - '0');
    ++*pos;
    any = true;
  }
  if (!any || *pos >= data.size() || data[*pos] != ':') return false;
  ++*pos;
  *n = value;
  return true;
}

void AppendValue(const Value& v, std::string* out) {
  switch (TypeOf(v)) {
    case ValueType::kInt: {
      out->push_back('i');
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%lld;",
                    static_cast<long long>(std::get<int64_t>(v)));
      out->append(buf);
      break;
    }
    case ValueType::kDouble: {
      out->push_back('d');
      char buf[48];
      std::snprintf(buf, sizeof(buf), "%.17g;", std::get<double>(v));
      out->append(buf);
      break;
    }
    case ValueType::kString: {
      const std::string& s = std::get<std::string>(v);
      out->push_back('s');
      AppendSize(s.size(), out);
      out->append(s);
      break;
    }
  }
}

bool ParseValue(std::string_view data, size_t* pos, Value* value) {
  if (*pos >= data.size()) return false;
  char tag = data[(*pos)++];
  if (tag == 'i' || tag == 'd') {
    const size_t end = data.find(';', *pos);
    if (end == std::string_view::npos) return false;
    // The numeric token needs a NUL terminator for strtoll/strtod; it is
    // short, so a stack copy beats materializing the whole input.
    char token[64];
    const size_t len = end - *pos;
    if (len >= sizeof(token)) return false;
    std::memcpy(token, data.data() + *pos, len);
    token[len] = '\0';
    *pos = end + 1;
    if (tag == 'i') {
      *value = static_cast<int64_t>(std::strtoll(token, nullptr, 10));
    } else {
      *value = std::strtod(token, nullptr);
    }
    return true;
  }
  if (tag == 's') {
    size_t len = 0;
    if (!ParseSize(data, pos, &len)) return false;
    if (*pos + len > data.size()) return false;
    *value = std::string(data.substr(*pos, len));
    *pos += len;
    return true;
  }
  return false;
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
  AppendSize(tuple.fields.size(), out);
  for (const Value& v : tuple.fields) AppendValue(v, out);
}

bool DeserializeTuple(std::string_view data, size_t* pos, Tuple* tuple) {
  tuple->fields.clear();
  size_t arity = 0;
  if (!ParseSize(data, pos, &arity)) return false;
  // Each field costs at least 2 encoded bytes, so a bounded reserve cannot
  // be tricked into a huge allocation by a corrupt arity.
  tuple->fields.reserve(std::min(arity, (data.size() - *pos) / 2 + 1));
  for (size_t i = 0; i < arity; ++i) {
    Value v;
    if (!ParseValue(data, pos, &v)) return false;
    tuple->fields.push_back(std::move(v));
  }
  return true;
}

void SerializeTemplate(const Template& tmpl, std::string* out) {
  AppendSize(tmpl.fields.size(), out);
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
  size_t arity = 0;
  if (!ParseSize(data, pos, &arity)) return false;
  tmpl->fields.reserve(std::min(arity, (data.size() - *pos) / 2 + 1));
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
  uint64_t hash = 14695981039346656037ull;
  for (char c : data) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
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
