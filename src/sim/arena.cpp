#include "sim/arena.h"

#include <new>

namespace nicsched::sim {

namespace {

bool needs_extended_alignment(std::size_t alignment) {
  return alignment > __STDCPP_DEFAULT_NEW_ALIGNMENT__;
}

}  // namespace

ArenaResource::~ArenaResource() {
  for (SizeClass& cls : classes_) {
    for (void* block : cls.free_blocks) {
      if (needs_extended_alignment(cls.alignment)) {
        ::operator delete(block, std::align_val_t{cls.alignment});
      } else {
        ::operator delete(block);
      }
    }
  }
}

ArenaResource::SizeClass& ArenaResource::size_class(std::size_t bytes,
                                                    std::size_t alignment) {
  for (SizeClass& cls : classes_) {
    if (cls.bytes == bytes && cls.alignment == alignment) return cls;
  }
  classes_.push_back(SizeClass{bytes, alignment, {}});
  return classes_.back();
}

void* ArenaResource::do_allocate(std::size_t bytes, std::size_t alignment) {
  SizeClass& cls = size_class(bytes, alignment);
  if (!cls.free_blocks.empty()) {
    void* block = cls.free_blocks.back();
    cls.free_blocks.pop_back();
    return block;
  }
  if (needs_extended_alignment(alignment)) {
    return ::operator new(bytes, std::align_val_t{alignment});
  }
  return ::operator new(bytes);
}

void ArenaResource::do_deallocate(void* p, std::size_t bytes,
                                  std::size_t alignment) {
  size_class(bytes, alignment).free_blocks.push_back(p);
}

}  // namespace nicsched::sim
