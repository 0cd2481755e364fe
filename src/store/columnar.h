#ifndef UCTR_STORE_COLUMNAR_H_
#define UCTR_STORE_COLUMNAR_H_

#include "table/columnar.h"

namespace uctr::store {

/// \brief A table's typed columns, as the codec serializes them. They are
/// the Table's own cells (table/columnar.h); the store keeps this name.
using ColumnarTable = ::uctr::ColumnarTable;

}  // namespace uctr::store

#endif  // UCTR_STORE_COLUMNAR_H_
