include Udma_traffic.Fabric (* the old name, which perfbench/ still uses *)
