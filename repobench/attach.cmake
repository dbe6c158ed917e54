# Hooks the benchmark package into the repository's own CMake project.
#
# run.py configures the repository root with
#   -DCMAKE_PROJECT_INCLUDE=<this file>
# CMake includes this file at the end of the root project() call; it defers
# including this directory's CMakeLists.txt to the end of the root
# CMakeLists.txt (a deferred call may not add a subdirectory), so the
# benchmark links the library targets exactly as the repository builds them:
# same build type, GEM2_NATIVE_ARCH, GEM2_TELEMETRY and compile flags.
get_property(_repobench_attached GLOBAL PROPERTY REPOBENCH_ATTACHED)
if(NOT _repobench_attached)
  set_property(GLOBAL PROPERTY REPOBENCH_ATTACHED TRUE)
  # Deferred arguments are expanded when the call runs, so bake the path in.
  cmake_language(EVAL CODE
    "cmake_language(DEFER CALL include [[${CMAKE_CURRENT_LIST_DIR}/CMakeLists.txt]])")
endif()
