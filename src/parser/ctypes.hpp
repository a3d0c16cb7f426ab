// C type expressions and function prototypes — the output of header parsing
// (paper §2.2: "the system parses the header files and manual pages from C
// libraries to generate the prototype information for all global functions").
//
// The model covers the C subset that library APIs use: base types with
// sign/const qualifiers, pointer levels, named typedefs (size_t, FILE,
// wctrans_t, ...), and varargs. to_declaration() renders back to the
// canonical one-line form, which tests round-trip against the original.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace healers::parser {

enum class BaseType : std::uint8_t {
  kVoid,
  kChar,
  kShort,
  kInt,
  kLong,
  kLongLong,
  kFloat,
  kDouble,
  kNamed,  // typedef or struct name (size_t, FILE, wctrans_t, ...)
};

// Coarse classification used by the type lattice and the wrapper generator.
enum class TypeClass : std::uint8_t {
  kVoid,
  kIntegral,
  kFloating,
  kPointer,
};

// Word i names the TypeClass with value i (campaign XML, lattice signatures).
inline constexpr std::array<std::string_view, 4> kTypeClassNames = {"void", "integral",
                                                                    "floating", "pointer"};

struct TypeExpr {
  BaseType base = BaseType::kInt;
  bool is_unsigned = false;
  bool pointee_const = false;  // `const` on the innermost (pointed-to) type
  int pointer_depth = 0;       // number of '*'
  std::string name;            // for kNamed

  // Function-pointer declarators: `ret (*name)(params)`. base/is_unsigned/
  // pointer_depth describe the RETURN type; fn_params the parameter types.
  bool is_function_pointer = false;
  std::vector<TypeExpr> fn_params;

  [[nodiscard]] bool is_pointer() const noexcept {
    return pointer_depth > 0 || is_function_pointer;
  }
  [[nodiscard]] TypeClass classify() const noexcept;
  // Renders the type alone: "const char *", "unsigned long", "wctrans_t".
  [[nodiscard]] std::string to_string() const;
  // Renders a declarator: "const char *src", "int c".
  [[nodiscard]] std::string declare(const std::string& identifier) const;

  [[nodiscard]] bool operator==(const TypeExpr&) const = default;
};

struct Parameter {
  TypeExpr type;
  std::string name;  // may be empty (unnamed parameter)

  [[nodiscard]] bool operator==(const Parameter&) const = default;
};

struct FunctionProto {
  TypeExpr return_type;
  std::string name;
  std::vector<Parameter> params;
  bool varargs = false;

  // "char *strcpy(char *dest, const char *src);"
  [[nodiscard]] std::string to_declaration() const;

  [[nodiscard]] bool operator==(const FunctionProto&) const = default;
};

// Known typedefs of the simulated platform and their underlying scalar
// class. The header parser accepts any identifier in this table as a type
// name; the lattice uses the class to pick probe values.
[[nodiscard]] TypeClass named_type_class(const std::string& name);
[[nodiscard]] bool is_known_typedef(const std::string& name);

}  // namespace healers::parser
