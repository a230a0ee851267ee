add_executable(natle-bm
  ${NATLE_BM_DIR}/main.cpp
  ${NATLE_BM_DIR}/micro.cpp
  ${NATLE_BM_DIR}/workloads.cpp
)
target_link_libraries(natle-bm PRIVATE
  natle_traffic natle_workload natle_sync natle_ds natle_htm natle_mem
  natle_obs natle_sim)
